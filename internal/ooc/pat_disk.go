package ooc

import (
	"context"
	"encoding/binary"
	"math"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// DefaultTrunkSize is the out-of-core trunk size: §3.2 picks it "as small as
// possible" subject to the trunk prefix sums fitting in memory; the paper
// uses 10 on twitter under a 16 GB budget.
const DefaultTrunkSize = 10

// slotBytes is the on-disk footprint of one edge slot in a trunk record:
// weight (8) + alias probability (8) + alias target (4).
const slotBytes = 8 + 8 + 4

// DiskPAT is the out-of-core TEA sampler: trunk-granularity prefix sums stay
// in memory (|E|/trunkSize floats), while per-trunk payloads — edge weights
// and the trunk's alias table — are fetched from the store on demand.
// Sampling reads exactly one trunk record per step: O(trunkSize) I/O versus
// the O(D) of a full-neighbor-load engine (§5.6).
type DiskPAT struct {
	readPath  // base is the store the PAT was built onto
	g         *temporal.Graph
	trunkSize int

	trunkOff []int64   // per vertex: first trunk index
	trunkCum []float64 // per vertex: trunk-granularity prefix sums (len trunks+1 per vertex)
	cumOff   []int64
	diskBase int64 // store offset of trunk record 0
}

// BuildDiskPAT lays the weighted graph's PAT onto the store. trunkSize <= 0
// selects DefaultTrunkSize.
func BuildDiskPAT(w *sampling.GraphWeights, store BlockStore, trunkSize int) (*DiskPAT, error) {
	if trunkSize <= 0 {
		trunkSize = DefaultTrunkSize
	}
	g := w.Graph()
	numV := g.NumVertices()
	d := &DiskPAT{
		readPath:  readPath{base: store},
		g:         g,
		trunkSize: trunkSize,
		trunkOff:  make([]int64, numV+1),
		cumOff:    make([]int64, numV+1),
	}
	for u := 0; u < numV; u++ {
		trunks := numTrunks(g.Degree(temporal.Vertex(u)), trunkSize)
		d.trunkOff[u+1] = d.trunkOff[u] + int64(trunks)
		d.cumOff[u+1] = d.cumOff[u] + int64(trunks) + 1
	}
	d.trunkCum = make([]float64, d.cumOff[numV])

	// Serialize trunk records vertex by vertex. Records are fixed-size
	// (trunkSize slots, zero-padded), so any trunk's offset is computable.
	record := make([]byte, trunkSize*slotBytes)
	prob := make([]float64, trunkSize)
	alias := make([]int32, trunkSize)
	scratch := make([]int32, 2*trunkSize)
	base, err := store.Append(nil)
	if err != nil {
		return nil, err
	}
	d.diskBase = base
	for u := 0; u < numV; u++ {
		uw := w.Vertex(temporal.Vertex(u))
		cum := d.trunkCum[d.cumOff[u]:d.cumOff[u+1]]
		sum := 0.0
		for t := 0; t*trunkSize < len(uw); t++ {
			lo := t * trunkSize
			hi := lo + trunkSize
			if hi > len(uw) {
				hi = len(uw)
			}
			n := hi - lo
			sampling.FillAlias(uw[lo:hi], prob[:n], alias[:n], scratch[:2*n])
			for i := 0; i < trunkSize; i++ {
				var wv, pv float64
				var av int32
				if i < n {
					wv, pv, av = uw[lo+i], prob[i], alias[i]
				}
				o := i * slotBytes
				binary.LittleEndian.PutUint64(record[o:], math.Float64bits(wv))
				binary.LittleEndian.PutUint64(record[o+8:], math.Float64bits(pv))
				binary.LittleEndian.PutUint32(record[o+16:], uint32(av))
			}
			off := d.diskBase + (d.trunkOff[u]+int64(t))*int64(trunkSize*slotBytes)
			if err := store.WriteAt(record, off); err != nil {
				return nil, err
			}
			for _, x := range uw[lo:hi] {
				sum += x
			}
			cum[t+1] = sum
		}
	}
	return d, nil
}

func numTrunks(degree, trunkSize int) int {
	if degree == 0 {
		return 0
	}
	return (degree + trunkSize - 1) / trunkSize
}

// Name implements the engine's Sampler contract.
func (d *DiskPAT) Name() string { return "TEA-OOC" }

// Sample implements the Sampler contract following §4.1's out-of-core
// protocol: the trunk of interest is chosen purely from the in-memory
// trunk-granularity prefix sums, then exactly one trunk record is fetched
// from disk — its alias table when the trunk is complete, its weight
// (prefix-sum) data when the candidate set covers it only partially. The
// partially covered trunk is proposed with its full weight and thinned by
// rejection against the candidate portion, which keeps the draw unbiased
// with one I/O per accepted proposal.
func (d *DiskPAT) Sample(u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	return d.sample(context.Background(), u, k, r)
}

// SampleCtx implements the engines' context-threaded sampling contract: the
// same draw as Sample, but trunk fetches open block-fetch trace spans under
// the caller's span when the run is traced.
func (d *DiskPAT) SampleCtx(ctx context.Context, u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	return d.sample(ctx, u, k, r)
}

// SampleBatch implements the engine's BatchSampler contract: each entry draws
// exactly as Sample would (same edge, same evaluated count, same random
// stream consumption), but trunk fetches repeat-hitting the same trunk
// record within the batch are served from a one-entry memo — see
// blockMemo. Concurrent calls on disjoint frontier chunks are safe; each
// call owns its memo.
func (d *DiskPAT) SampleBatch(ctx context.Context, us []temporal.Vertex, ks []int32, rs []*xrand.Rand, edges []int32, evals []int64, oks []bool) {
	s := getScratch()
	defer scratchPool.Put(s)
	for i, u := range us {
		e, ev, ok := d.sampleWith(ctx, u, int(ks[i]), rs[i], s, &s.memo)
		edges[i], evals[i], oks[i] = int32(e), ev, ok
	}
}

// WantsGroupedFrontier tells the batched kernel to sort each step's frontier
// by vertex: same-vertex walkers then arrive adjacently and their trunk
// fetches collapse into the memo (and below it, the block cache).
func (d *DiskPAT) WantsGroupedFrontier() bool { return true }

func (d *DiskPAT) sample(ctx context.Context, u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	s := getScratch()
	defer scratchPool.Put(s)
	return d.sampleWith(ctx, u, k, r, s, nil)
}

// sampleWith is one draw in scratch s; memo is &s.memo on the batched path
// and nil on the scalar one.
func (d *DiskPAT) sampleWith(ctx context.Context, u temporal.Vertex, k int, r *xrand.Rand, s *drawScratch, memo *blockMemo) (int, int64, bool) {
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
	ts := d.trunkSize
	cum := d.trunkCum[d.cumOff[u]:d.cumOff[u+1]]
	full := k / ts
	rem := k - full*ts
	if k == deg && rem != 0 {
		full, rem = numTrunks(deg, ts), 0
	}
	// Trunks overlapping the candidate set; the last may be partial.
	overlap := full
	if rem > 0 {
		overlap++
	}
	if overlap == 0 || !(cum[overlap] > 0) {
		return 0, 0, false
	}

	buf := s.buffer(ts * slotBytes)
	first := d.diskBase + d.trunkOff[u]*int64(ts*slotBytes) // u's trunk 0
	fetch := func(t int) error { return d.fetch(ctx, memo, buf, first+int64(t*ts*slotBytes), u, t) }
	var evaluated int64
	const proposalCap = 128
	for trial := 0; trial < proposalCap; trial++ {
		lo, probes := trunkOf(cum, overlap, r.Range(cum[overlap]))
		evaluated += probes
		if err := fetch(lo); err != nil {
			return 0, evaluated, false
		}
		if lo < full {
			// Complete trunk: O(1) alias draw from the fetched record.
			e, ok := completeDraw(r, buf, lo, ts, deg)
			return e, evaluated + 2, ok
		}
		// Partial trunk proposed with its full weight: accept with the
		// candidate fraction, then ITS within the candidate portion.
		trunkW := cum[lo+1] - cum[lo]
		partialW := partialMass(buf, rem)
		evaluated += int64(rem)
		if !(partialW > 0) || r.Range(trunkW) >= partialW {
			continue // rejected: excluded (too-old) mass was hit
		}
		i, scanned := partialScan(buf, rem, r.Range(partialW))
		return full*ts + i, evaluated + scanned, true
	}
	// Proposal cap reached: the partial trunk's excluded (too-old) mass
	// dominates its trunk. Fall back to the exact two-read path — fetch the
	// partial weights, compute the true candidate total, and sample without
	// rejection.
	if err := fetch(full); err != nil {
		return 0, evaluated, false
	}
	partialW := partialMass(buf, rem)
	evaluated += int64(rem)
	total := cum[full] + partialW
	if !(total > 0) {
		return 0, evaluated, false
	}
	x := float64(r.Range(total)) // rounded: x-cum[full] must not fuse (ci/fma_check.sh)
	if x >= cum[full] {
		i, scanned := partialScan(buf, rem, x-cum[full])
		return full*ts + i, evaluated + scanned, true
	}
	lo, probes := trunkOf(cum, full, x)
	evaluated += probes
	if err := fetch(lo); err != nil {
		return 0, evaluated, false
	}
	e, ok := completeDraw(r, buf, lo, ts, deg)
	return e, evaluated + 2, ok
}

// trunkOf returns the trunk among the first n whose cumulative weight range
// holds x, by binary search over the prefix sums, and the probes it took.
func trunkOf(cum []float64, n int, x float64) (int, int64) {
	lo, hi := 0, n-1
	var probes int64
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		probes++
		if cum[mid+1] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, probes
}

// completeDraw draws an edge of complete trunk t, whose record is in buf,
// by the trunk's alias table: one slot, then its probability or its alias.
// ok is false when the record is damaged.
func completeDraw(r *xrand.Rand, buf []byte, t, ts, deg int) (int, bool) {
	i := r.IntN(min(ts, deg-t*ts))
	o := i * slotBytes
	p := math.Float64frombits(binary.LittleEndian.Uint64(buf[o+8:]))
	if p < 0 {
		return 0, false
	}
	if p >= 1 || r.Float64() < p {
		return t*ts + i, true
	}
	return t*ts + int(int32(binary.LittleEndian.Uint32(buf[o+16:]))), true
}

// partialMass sums the weights of the first rem slots of the trunk record
// in buf: the candidate part of a partial trunk.
func partialMass(buf []byte, rem int) float64 {
	w := 0.0
	for i := 0; i < rem; i++ {
		w += math.Float64frombits(binary.LittleEndian.Uint64(buf[i*slotBytes:]))
	}
	return w
}

// partialScan is ITS over the first rem slots of the trunk record in buf:
// the first slot whose running weight exceeds y (the last slot when
// rounding leaves y above the total), and the slots it read.
func partialScan(buf []byte, rem int, y float64) (int, int64) {
	acc := 0.0
	for i := 0; i < rem; i++ {
		acc += math.Float64frombits(binary.LittleEndian.Uint64(buf[i*slotBytes:]))
		if y < acc {
			return i, int64(i + 1)
		}
	}
	return rem - 1, int64(rem)
}

// MemoryBytes implements the Sampler contract: only the trunk prefix sums
// and offsets are resident, |E|/trunkSize + O(V) — the point of the mode.
func (d *DiskPAT) MemoryBytes() int64 {
	return int64(len(d.trunkCum))*8 + int64(len(d.trunkOff)+len(d.cumOff))*8
}
