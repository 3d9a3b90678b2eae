package ooc

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/trace"
	"github.com/tea-graph/tea/internal/xrand"
)

// edgeRecBytes is the on-disk footprint of one adjacency record: timestamp
// (8) plus destination (4), the data a full-scan engine must load to rebuild
// a candidate distribution.
const edgeRecBytes = 12

// DiskGraphWalker is the out-of-core baseline of §5.6: a GraphWalker-style
// engine that, on every step, loads the walker's full candidate adjacency
// block from disk (O(D) I/O) and rebuilds the transition distribution by a
// sequential scan.
type DiskGraphWalker struct {
	readPath // base is the store the adjacency was built onto
	g        *temporal.Graph
	spec     sampling.WeightSpec
	minT     temporal.Time
	edgeBase int64
	edgeOff  []int64

	errMu    sync.Mutex
	firstErr error // first read failure (sticky)
}

// BuildDiskGraphWalker serializes the graph's adjacency onto the store in the
// layout the baseline reads back during sampling.
func BuildDiskGraphWalker(g *temporal.Graph, spec sampling.WeightSpec, store BlockStore) (*DiskGraphWalker, error) {
	if spec.Custom != nil {
		return nil, ErrCustomWeight
	}
	minT, _ := g.TimeRange()
	d := &DiskGraphWalker{
		readPath: readPath{base: store},
		g:        g,
		spec:     spec,
		minT:     minT,
		edgeOff: func() []int64 {
			off := make([]int64, g.NumVertices()+1)
			for u := 0; u < g.NumVertices(); u++ {
				off[u+1] = off[u] + int64(g.Degree(temporal.Vertex(u)))
			}
			return off
		}(),
	}
	base, err := store.Append(nil)
	if err != nil {
		return nil, err
	}
	d.edgeBase = base
	buf := make([]byte, 1<<16)
	pos := 0
	off := base
	flush := func() error {
		if pos == 0 {
			return nil
		}
		if err := store.WriteAt(buf[:pos], off); err != nil {
			return err
		}
		off += int64(pos)
		pos = 0
		return nil
	}
	for u := 0; u < g.NumVertices(); u++ {
		times := g.OutTimes(temporal.Vertex(u))
		dsts := g.OutDst(temporal.Vertex(u))
		for i := range times {
			if pos+edgeRecBytes > len(buf) {
				if err := flush(); err != nil {
					return nil, err
				}
			}
			binary.LittleEndian.PutUint64(buf[pos:], uint64(times[i]))
			binary.LittleEndian.PutUint32(buf[pos+8:], uint32(dsts[i]))
			pos += edgeRecBytes
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return d, nil
}

// Name implements the engine's Sampler contract.
func (d *DiskGraphWalker) Name() string { return "GraphWalker-OOC" }

// Sample implements the Sampler contract. Per §5.6, GraphWalker "has to load
// D neighbors in memory for sampling": the engine reads the vertex's entire
// adjacency block (it has no time-ordered index to know where the candidates
// stop), then filters to the k candidates and inverse-transform samples.
func (d *DiskGraphWalker) Sample(u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	return d.sample(context.Background(), u, k, r)
}

// SampleCtx is Sample with the run's context attached: when the run is being
// traced, the adjacency load opens an "ooc.block_fetch" span annotated with
// the vertex, the bytes read, and the cache source when a cache is enabled.
func (d *DiskGraphWalker) SampleCtx(ctx context.Context, u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	return d.sample(ctx, u, k, r)
}

func (d *DiskGraphWalker) sample(ctx context.Context, u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	return d.sampleWith(ctx, u, k, r, nil)
}

// adjMemo is the batched path's one-entry read-through memo: within one
// SampleBatch call, consecutive draws for the same vertex reuse the
// adjacency block already loaded (one O(D) device read serves the whole
// same-vertex run of a grouped frontier). Only the read is memoized — the
// candidate scan and weight rebuild still run per draw, so the evaluated
// count and random stream consumption stay element-wise identical to Sample.
type adjMemo struct {
	u     temporal.Vertex
	valid bool
	buf   []byte
	w     []float64
}

func (d *DiskGraphWalker) sampleWith(ctx context.Context, u temporal.Vertex, k int, r *xrand.Rand, memo *adjMemo) (int, int64, bool) {
	if k <= 0 {
		return 0, 0, false
	}
	deg := d.g.Degree(u)
	if deg == 0 {
		return 0, 0, false
	}
	if ctx.Err() != nil {
		// Cancelled before the load: fail the draw without charging the
		// device or poisoning the sticky error; the engine classifies the
		// walk as cancelled, not dead-ended.
		return 0, 0, false
	}
	if k > deg {
		k = deg
	}
	need := deg * edgeRecBytes
	var buf []byte
	hit := false
	if memo != nil {
		if memo.valid && memo.u == u {
			hit = true
		} else {
			memo.valid = false
			if cap(memo.buf) < need {
				memo.buf = make([]byte, need)
			}
		}
		buf = memo.buf[:need]
	} else {
		buf = make([]byte, need)
	}
	if hit {
		mBatchCoalesced.Inc()
	} else {
		off := d.edgeBase + d.edgeOff[u]*edgeRecBytes
		sp := trace.StartSpan(ctx, "ooc.block_fetch")
		rc := reqcost.From(ctx)
		src, err := d.read(rc, buf, off)
		if src != "" {
			sp.SetStr("source", src)
		}
		if sp != nil {
			sp.SetInt("vertex", int64(u))
			sp.SetInt("bytes", int64(len(buf)))
		}
		if err != nil {
			err = fmt.Errorf("ooc: adjacency read for vertex %d failed: %w", u, err)
			d.errMu.Lock()
			if d.firstErr == nil {
				d.firstErr = err
			}
			d.errMu.Unlock()
			if sp != nil {
				sp.SetError(err)
				sp.End()
			}
			return 0, 0, false
		}
		sp.End()
		if memo != nil {
			memo.u, memo.valid = u, true
		}
	}
	newest := temporal.Time(int64(binary.LittleEndian.Uint64(buf)))
	var w []float64
	if memo != nil {
		if cap(memo.w) < k {
			memo.w = make([]float64, k)
		}
		w = memo.w[:k]
	} else {
		w = make([]float64, k)
	}
	total := 0.0
	for i := 0; i < k; i++ {
		t := temporal.Time(int64(binary.LittleEndian.Uint64(buf[i*edgeRecBytes:])))
		w[i] = d.spec.EdgeWeight(t, newest, d.minT, deg-i)
		total += w[i]
	}
	idx, ok := sampling.LinearITS(w, total, r)
	return idx, int64(deg + k), ok
}

// SampleBatch implements the engine's BatchSampler contract: each entry draws
// exactly as Sample would, with same-vertex adjacency loads served from a
// one-entry memo (see adjMemo). Concurrent calls on disjoint frontier chunks
// are safe; each call owns its memo.
func (d *DiskGraphWalker) SampleBatch(ctx context.Context, us []temporal.Vertex, ks []int32, rs []*xrand.Rand, edges []int32, evals []int64, oks []bool) {
	var memo adjMemo
	for i, u := range us {
		e, ev, ok := d.sampleWith(ctx, u, int(ks[i]), rs[i], &memo)
		edges[i], evals[i], oks[i] = int32(e), ev, ok
	}
}

// WantsGroupedFrontier tells the batched kernel to sort each step's frontier
// by vertex so same-vertex walkers share one adjacency load.
func (d *DiskGraphWalker) WantsGroupedFrontier() bool { return true }

// MemoryBytes implements the Sampler contract: only vertex offsets resident.
func (d *DiskGraphWalker) MemoryBytes() int64 { return int64(len(d.edgeOff)) * 8 }

// Err returns the first read failure, or nil.
func (d *DiskGraphWalker) Err() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.firstErr
}
