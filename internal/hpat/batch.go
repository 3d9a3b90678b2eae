package hpat

import (
	"context"

	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// batchGroup is how many draws one staged pass of SampleBatch covers;
// smallGroup is the group a frontier of at most that many draws gets. A
// group's staging lives on the stack and is zeroed on every call, so a
// request's few walkers stage in 0.7 KB rather than 5.6 KB.
const (
	batchGroup = 64
	smallGroup = 8
)

// stage is one draw's staging between SampleBatch's passes.
type stage struct {
	base   int64 // u's block offset within idx.words
	deg, k int   // k is the candidate count, clamped as Sample clamps it
	total  float64
	d      draw
}

// SampleBatch implements the engine's BatchSampler contract: one draw per
// frontier entry, element-wise identical to Sample (same edge, same
// evaluated count, same consumption of the walker's stream). A draw is a
// chain of dependent loads — the vertex's degree and block offset, its
// prefix total, a trunk boundary, an alias slot — that misses cache at
// nearly every link on a large graph. SampleBatch stages the chain: each
// pass issues one link's loads for a whole group of walkers before the next
// pass uses any of them, so the walkers' misses overlap instead of queuing
// one behind another.
// Each walker's stream is consumed in resolve exactly as Sample consumes it.
// The index is immutable after build, so disjoint chunks may be sampled
// concurrently. The hierarchy lives in RAM, so the context is ignored.
func (idx *Index) SampleBatch(_ context.Context, us []temporal.Vertex, ks []int32, rs []*xrand.Rand, edges []int32, evals []int64, oks []bool) {
	if len(us) <= smallGroup {
		var st [smallGroup]stage
		idx.sampleGroup(st[:], us, ks, rs, edges, evals, oks)
		return
	}
	var st [batchGroup]stage
	for lo := 0; lo < len(us); lo += batchGroup {
		hi := min(lo+batchGroup, len(us))
		idx.sampleGroup(st[:], us[lo:hi], ks[lo:hi], rs[lo:hi], edges[lo:hi], evals[lo:hi], oks[lo:hi])
	}
}

// sampleGroup is SampleBatch over at most len(st) entries.
func (idx *Index) sampleGroup(st []stage, us []temporal.Vertex, ks []int32, rs []*xrand.Rand, edges []int32, evals []int64, oks []bool) {
	st = st[:len(us)] // lets the compiler drop the staging's bounds checks
	offs := idx.g.Offsets()
	// Pass 1: each vertex's degree and block offset.
	for i, u := range us {
		st[i].deg = int(offs[u+1] - offs[u])
		st[i].base = idx.off[u]
	}
	// Pass 2: each candidate prefix's total. An empty prefix gets total 0,
	// so pass 3 settles it, like a weightless one, without a draw, as Sample
	// does.
	for i := range st {
		s := &st[i]
		s.k, s.total = min(int(ks[i]), s.deg), 0
		if s.k > 0 {
			s.total = BlockTotal(idx.words[s.base:], s.k)
		}
	}
	// Pass 3: the trunk boundary, the tail-run ITS or the slot word.
	var buf [maxLevels]DecompEntry
	for i := range st {
		s := &st[i]
		if !(s.total > 0) {
			s.d = draw{slot: -1}
			continue
		}
		var dec []DecompEntry
		if idx.aux != nil {
			dec = idx.aux.Decomp(s.k)
		} else {
			dec = Decompose(s.k, buf[:0])
		}
		s.d.resolve(blockCum(idx.words[s.base:], s.deg), s.total, s.deg, s.k, dec, rs[i])
	}
	// Pass 4: the alias slots, which follow the deg+1 prefix sums.
	for i := range st {
		s := &st[i]
		e, ev, ok := s.d.finish(idx.words[s.base+int64(s.deg)+1:])
		edges[i], evals[i], oks[i] = int32(e), ev, ok
	}
}
