package sampling

import (
	"github.com/tea-graph/tea/internal/xrand"
)

// AliasTable supports O(1) weighted sampling over a fixed weight array using
// Vose's method (§2.2 "alias method"): every trunk slot holds at most two
// "pieces", its own probability mass and an alias to borrow the remainder
// from. Construction is O(n). It is plain storage for FillAlias and
// SampleAliasSlots.
//
// The zero-length table is valid and never sampled.
type AliasTable struct {
	prob  []float64 // acceptance threshold of slot i, scaled to [0,1]
	alias []int32   // slot to fall back to when the threshold is exceeded
}

// NewAliasTable builds the table for the given weights. Weights must be
// non-negative; an all-zero or empty array yields a table whose Sample
// reports ok=false.
func NewAliasTable(weights []float64) *AliasTable {
	t := &AliasTable{
		prob:  make([]float64, len(weights)),
		alias: make([]int32, len(weights)),
	}
	FillAlias(weights, t.prob, t.alias, nil)
	return t
}

// Len returns the number of slots.
func (t *AliasTable) Len() int { return len(t.prob) }

// Sample draws an index in [0, Len()) with probability proportional to the
// construction weights, in O(1). ok is false for degenerate tables.
func (t *AliasTable) Sample(r *xrand.Rand) (idx int, ok bool) {
	return SampleAliasSlots(t.prob, t.alias, r)
}

// MemoryBytes returns the footprint of the table arrays.
func (t *AliasTable) MemoryBytes() int64 {
	return int64(len(t.prob))*8 + int64(len(t.alias))*4
}

// FillAlias constructs alias arrays in place over caller-provided storage so
// higher-level structures (HPAT) can pack thousands of small tables into two
// flat allocations and build them lock-free in parallel (§4.2: each table's
// position in memory is known before construction). prob and alias must have
// len(weights) elements. smallLarge is scratch of at least 2*len(weights)
// int32s; pass nil to allocate.
func FillAlias(weights []float64, prob []float64, alias []int32, smallLarge []int32) {
	n := len(weights)
	if len(prob) != n || len(alias) != n {
		panic("sampling: FillAlias storage length mismatch")
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if !(total > 0) {
		for i := range prob {
			prob[i] = -1
		}
		return
	}
	if smallLarge == nil {
		smallLarge = make([]int32, 2*n)
	}
	small := smallLarge[:0:n]
	large := smallLarge[n:n]
	// Reuse prob as the scaled-weight scratch; slots are finalized in the
	// pairing loop below.
	for i, w := range weights {
		prob[i] = w * float64(n) / total
	}
	for i := n - 1; i >= 0; i-- {
		if prob[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		alias[s] = l
		prob[l] -= 1 - prob[s]
		if prob[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, l := range large {
		prob[l] = 1
		alias[l] = l
	}
	for _, s := range small {
		// Only reachable through floating-point round-off; treat as full.
		prob[s] = 1
		alias[s] = s
	}
}

// SampleAliasSlots draws from packed (prob, alias) arrays built by FillAlias.
func SampleAliasSlots(prob []float64, alias []int32, r *xrand.Rand) (idx int, ok bool) {
	n := len(prob)
	if n == 0 {
		return 0, false
	}
	i := r.IntN(n)
	p := prob[i]
	if p < 0 {
		return 0, false
	}
	if p >= 1 || r.Float64() < p {
		return i, true
	}
	return int(alias[i]), true
}
