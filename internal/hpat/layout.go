package hpat

import (
	"math/bits"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/xrand"
)

// maxLevels bounds the trunk hierarchy depth; degrees are < 2^40.
const maxLevels = 40

// minTableLevel is the lowest trunk level that carries alias tables. Levels
// below it would hold more slots than all the levels above them together, so
// the k mod 2^minTableLevel oldest edges of a prefix — its tail run — are
// sampled by ITS over the prefix sums instead, the incomplete-trunk path of
// PAT (§3.2) under the HPAT decomposition (§3.3).
const minTableLevel = 5

// tailMask extracts the tail-run length from a prefix length.
const tailMask = 1<<minTableLevel - 1

// topLevel returns K = ⌊log2 n⌋ for n ≥ 1, the deepest trunk level of a
// vertex with n edges (Eq. 5).
func topLevel(n int) int {
	if n <= 0 {
		return -1
	}
	return bits.Len(uint(n)) - 1
}

// slotCount returns the total alias-table slots of levels minTableLevel..K
// for a vertex with n edges: Σ_k ⌊n/2^k⌋·2^k, the O(D log D) space of §3.3.
func slotCount(n int) int64 {
	return int64(levelBase(n, topLevel(n)+1))
}

// levelBase returns the slot offset of level's trunk tables within the slot
// block of a vertex with n edges. It is recomputed per draw — a handful of
// shift-adds — so no per-level offsets are stored.
func levelBase(n, level int) int {
	off := 0
	for j := minTableLevel; j < level; j++ {
		off += (n >> j) << j
	}
	return off
}

// A slot is one alias-table entry packed into a word: the high 32 bits are
// the acceptance threshold as round-to-nearest 32-bit fixed point, the low 32
// bits the trunk-local alias. A slot that always accepts stores 0xFFFFFFFF
// with its own position as alias, so the one draw in 2^32 that fails the
// compare still lands on it.
func packSlot(prob float64, alias int32) uint64 {
	t := uint64(prob*(1<<32) + 0.5)
	if t > 0xFFFFFFFF {
		t = 0xFFFFFFFF
	}
	return t<<32 | uint64(uint32(alias))
}

// blockScratch is the per-worker working space of buildBlock: one trunk's
// Vose arrays before they are packed, and FillAlias's small/large stacks.
type blockScratch struct {
	prob       []float64
	alias      []int32
	smallLarge []int32
}

func (s *blockScratch) grow(size int) {
	if len(s.prob) < size {
		s.prob = make([]float64, size)
		s.alias = make([]int32, size)
		s.smallLarge = make([]int32, 2*size)
	}
}

// buildBlock constructs one vertex's HPAT storage in place:
//
//   - cum: per-edge prefix sums, len n+1 (the ITS array C of Figure 6),
//   - slots: packed alias tables of levels minTableLevel..K, len slotCount(n).
//
// It touches only the provided slices, so disjoint vertices build lock-free
// in parallel (§4.2). A trunk without weight keeps zero slots: its prefix
// sums are equal at both ends, so resolve never selects it.
func buildBlock(w, cum []float64, slots []uint64, scratch *blockScratch) {
	n := len(w)
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

// draw is one sample between its two halves. resolve settles everything
// the prefix sums decide; a draw that lands in a table trunk is left holding
// the slot to read, the random word that picked it and the trunk it lies in,
// and finish reads that slot. Splitting at the slot read lets a batch issue
// every walker's slot load before it needs any of them (batch.go).
type draw struct {
	edge      int    // the drawn edge, or the picked slot's own edge while slot ≥ 0
	evaluated int64  // array entries examined, the Figure 2 metric
	slot      int    // the slot to read, relative to the vertex's slot block; -1 when settled
	v         uint64 // the slot word's random draw: its low 32 bits test the threshold
	pos       int    // the trunk's first edge
	mask      int    // the trunk's size minus one
	ok        bool
}

// resolve runs the first half of a draw into d, from the k-element prefix
// of an n-edge vertex block built by buildBlock, whose prefix sums are cum
// and whose prefix total cum[k] the caller has loaded: it draws
// x = r.Range(total), finds the trunk boundary by ITS and either finishes a
// tail-run ITS or draws the slot word and computes the slot's position. dec
// must be the decomposition of k (from the auxiliary index or Decompose);
// its trunks below minTableLevel together form the tail run. d is written
// field by field, not returned or assigned whole: either of those stages
// the struct in a temporary and copies it with wide loads of narrow
// stores, which the CPU cannot forward.
func (d *draw) resolve(cum []float64, total float64, n, k int, dec []DecompEntry, r *xrand.Rand) {
	d.slot = -1
	if !(total > 0) {
		d.edge, d.evaluated, d.ok = 0, 0, false
		return
	}
	d.ok = true
	x := r.Range(total)
	// ITS over the ≤ log2(k) boundaries — the table trunks, which lead dec,
	// then the tail run: O(log log D). The boundary found is the first whose
	// end sum exceeds x, so the sum at its start does not: it carries weight.
	tables := bits.OnesCount(uint(k >> minTableLevel))
	tail := k & tailMask
	lo, hi := 0, tables-1
	if tail > 0 {
		hi = tables
	}
	var evaluated int64
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		end := int(dec[mid].Pos) + dec[mid].Size()
		evaluated++
		if cum[end] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == tables {
		// ITS inside the tail run: the first edge whose end sum exceeds x.
		lo, hi = k-tail, k-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			evaluated++
			if cum[mid+1] > x {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		d.edge, d.evaluated = lo, evaluated+1
		return
	}
	// One random word picks the slot with its top level bits (trunks are
	// exact powers of two, so there is no modulo bias) and is compared
	// against the slot's threshold with its low 32 bits in finish.
	t := dec[lo]
	v := r.Uint64()
	i := int(v >> (64 - t.Level))
	pos := int(t.Pos)
	d.edge, d.evaluated = pos+i, evaluated+1
	d.slot, d.v = levelBase(n, int(t.Level))+pos+i, v
	d.pos, d.mask = pos, t.Size()-1
}

// finish completes d against the vertex's packed alias slots: the picked
// slot's own edge when the word passes its threshold, the slot's alias
// otherwise. The alias is masked so no stored word can index outside the
// trunk.
func (d *draw) finish(slots []uint64) (edge int, evaluated int64, ok bool) {
	if d.slot < 0 {
		return d.edge, d.evaluated, d.ok
	}
	s := slots[d.slot]
	if uint32(d.v) < uint32(s>>32) {
		return d.edge, d.evaluated, true
	}
	return d.pos + int(uint32(s))&d.mask, d.evaluated, true
}
