package ooc

import (
	"context"
	"encoding/binary"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
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
}

// BuildDiskGraphWalker serializes the graph's adjacency onto the store in the
// layout the baseline reads back during sampling.
func BuildDiskGraphWalker(g *temporal.Graph, spec sampling.WeightSpec, store BlockStore) (*DiskGraphWalker, error) {
	if spec.Custom != nil {
		return nil, ErrCustomWeight
	}
	minT, _ := g.TimeRange()
	d := &DiskGraphWalker{
		readPath: readPath{base: store, retry: DefaultRetryPolicy},
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

// SampleCtx is Sample with the run's context attached: the adjacency load
// stops on cancellation and, when the run is traced, opens an
// "ooc.block_fetch" span (see readPath.fetch).
func (d *DiskGraphWalker) SampleCtx(ctx context.Context, u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	return d.sample(ctx, u, k, r)
}

func (d *DiskGraphWalker) sample(ctx context.Context, u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	s := getScratch()
	defer scratchPool.Put(s)
	return d.sampleWith(ctx, u, k, r, s, nil)
}

// sampleWith is one draw in scratch s; memo is &s.memo on the batched path
// and nil on the scalar one.
func (d *DiskGraphWalker) sampleWith(ctx context.Context, u temporal.Vertex, k int, r *xrand.Rand, s *drawScratch, memo *blockMemo) (int, int64, bool) {
	if k <= 0 {
		return 0, 0, false
	}
	deg := d.g.Degree(u)
	if deg == 0 {
		return 0, 0, false
	}
	if k > deg {
		k = deg
	}
	buf := s.buffer(deg * edgeRecBytes)
	if err := d.fetch(ctx, memo, buf, d.edgeBase+d.edgeOff[u]*edgeRecBytes, u, -1); err != nil {
		return 0, 0, false
	}
	newest := temporal.Time(int64(binary.LittleEndian.Uint64(buf)))
	w := s.weights(k)
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
// one-entry memo (see blockMemo). Concurrent calls on disjoint frontier
// chunks are safe; each call owns its memo.
func (d *DiskGraphWalker) SampleBatch(ctx context.Context, us []temporal.Vertex, ks []int32, rs []*xrand.Rand, edges []int32, evals []int64, oks []bool) {
	s := getScratch()
	defer scratchPool.Put(s)
	for i, u := range us {
		e, ev, ok := d.sampleWith(ctx, u, int(ks[i]), rs[i], s, &s.memo)
		edges[i], evals[i], oks[i] = int32(e), ev, ok
	}
}

// WantsGroupedFrontier tells the batched kernel to sort each step's frontier
// by vertex so same-vertex walkers share one adjacency load.
func (d *DiskGraphWalker) WantsGroupedFrontier() bool { return true }

// MemoryBytes implements the Sampler contract: only vertex offsets resident.
func (d *DiskGraphWalker) MemoryBytes() int64 { return int64(len(d.edgeOff)) * 8 }
