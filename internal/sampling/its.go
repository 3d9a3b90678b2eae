package sampling

import (
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// ITS samples temporal candidate sets by inverse transform sampling (§2.2)
// over per-vertex prefix sums of a graph's weights: C[i] = Σ_{j<i} w_j over
// each vertex's newest-first out-edges, so one array serves every candidate
// prefix (§3.3) — O(log D) per draw, O(D) space. §5.4 notes ITS slots
// directly into TEA because the newest-first order matches the prefix-sum
// layout; it is the "ITS" row of Figure 12 and the baselines' sampler for
// walker-independent weights (§4.3).
type ITS struct {
	cum []float64 // u's prefix sums are cum[off[u]:off[u+1]], deg(u)+1 of them
	off []int64
}

// NewITS builds the per-vertex prefix sums of w.
func NewITS(w *GraphWeights) *ITS {
	g := w.Graph()
	numV := g.NumVertices()
	off := make([]int64, numV+1)
	for u := 0; u < numV; u++ {
		off[u+1] = off[u] + int64(g.Degree(temporal.Vertex(u))) + 1
	}
	cum := make([]float64, off[numV])
	for u := 0; u < numV; u++ {
		c := cum[off[u]:off[u+1]]
		sum := 0.0
		for i, x := range w.Vertex(temporal.Vertex(u)) {
			sum += x
			c[i+1] = sum
		}
	}
	return &ITS{cum: cum, off: off}
}

// Sample draws an index in [0, k) of u's newest-first out-edges with
// probability proportional to its weight, by a binary search for the first
// prefix sum above a uniform draw. evaluated counts the probes plus one.
// ok is false when k ≤ 0, u has no out-edges or the prefix carries no
// weight.
func (s *ITS) Sample(u temporal.Vertex, k int, r *xrand.Rand) (idx int, evaluated int64, ok bool) {
	if k <= 0 {
		return 0, 0, false
	}
	cum := s.cum[s.off[u]:s.off[u+1]]
	deg := len(cum) - 1
	if deg == 0 {
		return 0, 0, false
	}
	if k > deg {
		k = deg
	}
	total := cum[k]
	if !(total > 0) {
		return 0, 0, false
	}
	x := r.Range(total)
	lo, hi := 0, k-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		evaluated++
		if cum[mid+1] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, evaluated + 1, true
}

// MemoryBytes returns the footprint of the prefix sums and offsets.
func (s *ITS) MemoryBytes() int64 {
	return int64(len(s.cum))*8 + int64(len(s.off))*8
}

// LinearITS samples from weights[0:k] by a sequential scan, used for tiny
// segments (the incomplete-trunk case of PAT, §3.2) where a scan beats a
// binary search. The caller supplies the total; ok is false for a
// non-positive total.
func LinearITS(weights []float64, total float64, r *xrand.Rand) (idx int, ok bool) {
	if !(total > 0) || len(weights) == 0 {
		return 0, false
	}
	x := r.Range(total)
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i, true
		}
	}
	// Floating-point edge: fall back to the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i, true
		}
	}
	return 0, false
}
