package hpat

import (
	"math"
	"unsafe"

	"github.com/tea-graph/tea/internal/xrand"
)

// A standalone block is one newest-first weight run's HPAT laid out in a
// caller's words: n+1 prefix sums (float64 bits), then the packed alias
// slots of levels minTableLevel..K. The streaming engine (§3.5) keeps one
// block per segment of a vertex's edge list inside the segment's own arena,
// next to the edges, so a segment is one pointer-free allocation.

// BlockWords returns the words a block over n weights occupies.
func BlockWords(n int) int { return n + 1 + int(slotCount(n)) }

// BlockScratch is BuildBlock's working space, reusable by one goroutine
// across builds.
type BlockScratch struct{ s blockScratch }

// Len returns the largest trunk the scratch has room for: it holds 20 bytes
// per slot.
func (s *BlockScratch) Len() int { return len(s.s.prob) }

// blockCum views a block's prefix sums as float64s.
func blockCum(words []uint64, n int) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(words))), n+1)
}

// BuildBlock builds the HPAT of w (newest first) into words, which must hold
// at least BlockWords(len(w)). w is only read during the call.
func BuildBlock(w []float64, words []uint64, scratch *BlockScratch) {
	n := len(w)
	buildBlock(w, blockCum(words, n), words[n+1:BlockWords(n)], &scratch.s)
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
	return sampleBlock(blockCum(words, n), words[n+1:], n, k, dec, r)
}
