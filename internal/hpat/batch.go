package hpat

import (
	"context"

	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// batchGroup is how many draws one staged pass of SampleBatch covers; a
// group's staging arrays live on the stack.
const batchGroup = 64

// SampleBatch implements the engine's BatchSampler contract: one draw per
// frontier entry, element-wise identical to Sample (same edge, same
// evaluated count, same consumption of the walker's stream). A draw is a
// chain of dependent loads — the vertex's CSR offsets, its prefix total, a
// trunk boundary, an alias slot — that misses cache at nearly every link on
// a large graph. SampleBatch stages the chain: each pass issues one link's
// loads for a whole group of walkers before the next pass uses any of them,
// so the walkers' misses overlap instead of queuing one behind another.
// Each walker's stream is consumed in resolve exactly as Sample consumes it.
// The index is immutable after build, so disjoint chunks may be sampled
// concurrently. The hierarchy lives in RAM, so the context is ignored.
func (idx *Index) SampleBatch(_ context.Context, us []temporal.Vertex, ks []int32, rs []*xrand.Rand, edges []int32, evals []int64, oks []bool) {
	for lo := 0; lo < len(us); lo += batchGroup {
		hi := min(lo+batchGroup, len(us))
		idx.sampleGroup(us[lo:hi], ks[lo:hi], rs[lo:hi], edges[lo:hi], evals[lo:hi], oks[lo:hi])
	}
}

// sampleGroup is SampleBatch over at most batchGroup entries.
func (idx *Index) sampleGroup(us []temporal.Vertex, ks []int32, rs []*xrand.Rand, edges []int32, evals []int64, oks []bool) {
	var (
		first [batchGroup]int // u's first prefix sum within idx.cum
		deg   [batchGroup]int
		k     [batchGroup]int // the candidate count, clamped as Sample clamps it
		slot0 [batchGroup]int64
		total [batchGroup]float64
		draws [batchGroup]draw
	)
	us = us[:min(len(us), batchGroup)] // lets the compiler drop the staging arrays' bounds checks
	offs := idx.g.Offsets()
	// Pass 1: each vertex's CSR offsets and slot offset.
	for i, u := range us {
		lo := offs[u]
		first[i] = int(lo) + int(u)
		deg[i] = int(offs[u+1] - lo)
		slot0[i] = idx.slotOff[u]
	}
	// Pass 2: each candidate prefix's total. An empty prefix keeps total 0,
	// so pass 3 settles it, like a weightless one, without a draw, as Sample
	// does.
	for i := range us {
		k[i] = min(int(ks[i]), deg[i])
		if k[i] > 0 {
			total[i] = idx.cum[first[i]+k[i]]
		}
	}
	// Pass 3: the trunk boundary, the tail-run ITS or the slot word.
	var buf [maxLevels]DecompEntry
	for i := range us {
		if !(total[i] > 0) {
			draws[i] = draw{slot: -1}
			continue
		}
		var dec []DecompEntry
		if idx.aux != nil {
			dec = idx.aux.Decomp(k[i])
		} else {
			dec = Decompose(k[i], buf[:0])
		}
		draws[i].resolve(idx.cum[first[i]:first[i]+deg[i]+1], total[i], deg[i], k[i], dec, rs[i])
	}
	// Pass 4: the alias slots.
	for i := range us {
		e, ev, ok := draws[i].finish(idx.slots[slot0[i]:])
		edges[i], evals[i], oks[i] = int32(e), ev, ok
	}
}
