package hpat

import (
	"math"
	"unsafe"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/xrand"
)

// A standalone block is one newest-first weight run's HPAT laid out in a
// caller's words: n+1 prefix sums (float64 bits), then the packed alias
// slots of levels minTableLevel..K. It is the one HPAT layout: Index lays
// one block per vertex end to end in a single arena, and the streaming
// engine (§3.5) keeps one block per segment of a vertex's edge list inside
// the segment's own arena, next to the edges, so a segment is one
// pointer-free allocation.

// BlockWords returns the words a block over n weights occupies.
func BlockWords(n int) int { return n + 1 + int(slotCount(n)) }

// BlockScratch is BuildBlock's working space, reusable by one goroutine
// across builds: one trunk's Vose arrays before they are packed, and
// FillAlias's small/large stacks.
type BlockScratch struct {
	prob       []float64
	alias      []int32
	smallLarge []int32
}

// Len returns the largest trunk the scratch has room for: it holds 20 bytes
// per slot.
func (s *BlockScratch) Len() int { return len(s.prob) }

func (s *BlockScratch) grow(size int) {
	if len(s.prob) < size {
		s.prob = make([]float64, size)
		s.alias = make([]int32, size)
		s.smallLarge = make([]int32, 2*size)
	}
}

// blockCum views a block's prefix sums as float64s.
func blockCum(words []uint64, n int) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(words))), n+1)
}

// BuildBlock builds the HPAT of w (newest first) into words, which must hold
// at least BlockWords(len(w)): the per-edge prefix sums (the ITS array C of
// Figure 6), then the packed alias tables of levels minTableLevel..K. w is
// only read during the call, and only words is written, so disjoint blocks
// build lock-free in parallel (§4.2). A trunk without weight keeps zero
// slots: its prefix sums are equal at both ends, so resolve never selects
// it.
func BuildBlock(w []float64, words []uint64, scratch *BlockScratch) {
	n := len(w)
	cum, slots := blockCum(words, n), words[n+1:BlockWords(n)]
	sum := 0.0
	cum[0] = 0
	for i, x := range w {
		sum += x
		cum[i+1] = sum
	}
	kTop := topLevel(n)
	if kTop < minTableLevel {
		return
	}
	scratch.grow(1 << kTop)
	for k := minTableLevel; k <= kTop; k++ {
		size := 1 << k
		prob, alias := scratch.prob[:size], scratch.alias[:size]
		for lo := 0; lo+size <= n; lo += size {
			if !(cum[lo+size] > cum[lo]) {
				continue
			}
			sampling.FillAlias(w[lo:lo+size], prob, alias, scratch.smallLarge[:2*size])
			for i, p := range prob {
				slots[lo+i] = packSlot(p, alias[i])
			}
		}
		slots = slots[(n>>k)<<k:]
	}
}

// BlockTotal returns the combined weight of a block's k newest edges.
func BlockTotal(words []uint64, k int) float64 { return math.Float64frombits(words[k]) }

// SampleBlock draws an index from the k newest edges of an n-edge block
// built by BuildBlock. aux may be nil, in which case the decomposition is
// computed on the fly. ok is false when k ≤ 0 or the prefix carries no
// weight.
func SampleBlock(words []uint64, n, k int, aux *AuxIndex, r *xrand.Rand) (idx int, evaluated int64, ok bool) {
	if k <= 0 || n == 0 {
		return 0, 0, false
	}
	if k > n {
		k = n
	}
	var dec []DecompEntry
	if aux != nil && k <= aux.MaxSize() {
		dec = aux.Decomp(k)
	} else {
		var buf [maxLevels]DecompEntry
		dec = Decompose(k, buf[:0])
	}
	cum := blockCum(words, n)
	var d draw
	d.resolve(cum, cum[k], n, k, dec, r)
	return d.finish(words[n+1:])
}
