// Package pat implements the Persistent Alias Table of §3.2 of the TEA
// paper: each vertex's newest-first out-edge list is partitioned into
// fixed-size trunks; an alias table is built per trunk and a prefix-sum array
// is kept at trunk granularity. A temporal candidate set — always a prefix of
// the edge list — is sampled by ITS over the trunk prefix sums followed by an
// alias draw inside a complete trunk, or a local ITS rebuild inside the one
// incomplete trunk (the two cases of Figure 5).
//
// Space per vertex is O(D); sampling is O(log(D/trunkSize) + trunkSize).
package pat

import (
	"math"
	"sort"

	"github.com/tea-graph/tea/internal/par"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// DefaultTrunkSize returns the in-memory trunk size policy of §3.2:
// ⌊√deg⌋ balances the ITS over trunks against the scan inside a trunk.
func DefaultTrunkSize(degree int) int {
	if degree <= 1 {
		return 1
	}
	ts := int(math.Sqrt(float64(degree)))
	if ts < 1 {
		ts = 1
	}
	return ts
}

// Config controls index construction.
type Config struct {
	// TrunkSize fixes one trunk size for every vertex; 0 selects the
	// per-vertex ⌊√deg⌋ policy. Out-of-core deployments use a small fixed
	// size so the trunk prefix sums fit in memory (§3.2).
	TrunkSize int
	// Threads used for parallel construction; <1 means GOMAXPROCS.
	Threads int
}

// Index is the PAT for a whole graph: flat per-edge alias storage plus
// trunk-granularity prefix sums, with per-vertex offsets. All slices are laid
// out before construction so vertices build lock-free in parallel (§4.2).
type Index struct {
	g       *temporal.Graph
	weights *sampling.GraphWeights

	trunkSize []int32 // per vertex
	prob      []float64
	alias     []int32
	trunkOff  []int64   // per vertex: start of its trunk prefix-sum block
	trunkCum  []float64 // concatenated per-vertex trunk prefix sums
}

// Build constructs the PAT index over g with the given edge weights.
func Build(w *sampling.GraphWeights, cfg Config) *Index {
	g := w.Graph()
	numV := g.NumVertices()
	idx := &Index{
		g:         g,
		weights:   w,
		trunkSize: make([]int32, numV),
		prob:      make([]float64, g.NumEdges()),
		alias:     make([]int32, g.NumEdges()),
		trunkOff:  make([]int64, numV+1),
	}
	// Phase 1: fix per-vertex trunk sizes and prefix-sum offsets.
	for u := 0; u < numV; u++ {
		deg := g.Degree(temporal.Vertex(u))
		ts := cfg.TrunkSize
		if ts <= 0 {
			ts = DefaultTrunkSize(deg)
		}
		idx.trunkSize[u] = int32(ts)
		idx.trunkOff[u+1] = idx.trunkOff[u] + int64(numTrunks(deg, ts)) + 1
	}
	idx.trunkCum = make([]float64, idx.trunkOff[numV])

	// Phase 2: per-vertex construction, parallel and lock-free because every
	// vertex writes disjoint pre-computed ranges.
	par.ForEdges(g.Offsets(), cfg.Threads, func(_, lo, hi int) {
		var scratch []int32
		for u := lo; u < hi; u++ {
			scratch = idx.buildVertex(temporal.Vertex(u), scratch)
		}
	})
	return idx
}

// numTrunks returns the trunk count for a vertex of the given degree,
// including a final partial trunk.
func numTrunks(degree, trunkSize int) int {
	if degree == 0 {
		return 0
	}
	return (degree + trunkSize - 1) / trunkSize
}

func (idx *Index) buildVertex(u temporal.Vertex, scratch []int32) []int32 {
	deg := idx.g.Degree(u)
	if deg == 0 {
		return scratch
	}
	ts := int(idx.trunkSize[u])
	elo, _ := idx.g.EdgeRange(u)
	w := idx.weights.Vertex(u)
	if cap(scratch) < 2*ts {
		scratch = make([]int32, 2*ts)
	}
	cum := idx.trunkCum[idx.trunkOff[u]:idx.trunkOff[u+1]]
	sum := 0.0
	for t := 0; t*ts < deg; t++ {
		lo := t * ts
		hi := lo + ts
		if hi > deg {
			hi = deg
		}
		sampling.FillAlias(w[lo:hi], idx.prob[elo+lo:elo+hi], idx.alias[elo+lo:elo+hi], scratch[:2*(hi-lo)])
		for _, x := range w[lo:hi] {
			sum += x
		}
		cum[t+1] = sum
	}
	return scratch
}

// Name identifies the sampler in experiment output.
func (idx *Index) Name() string { return "PAT" }

// TrunkSizeOf returns the trunk size chosen for vertex u.
func (idx *Index) TrunkSizeOf(u temporal.Vertex) int { return int(idx.trunkSize[u]) }

// Sample draws one edge index from the k newest out-edges of u with
// probability proportional to edge weight. evaluated counts the edges/array
// slots examined (the Figure 2 metric). ok is false when k == 0 or the
// candidate prefix has zero weight.
func (idx *Index) Sample(u temporal.Vertex, k int, r *xrand.Rand) (edge int, evaluated int64, ok bool) {
	if k <= 0 {
		return 0, 0, false
	}
	deg := idx.g.Degree(u)
	if k > deg {
		k = deg
	}
	ts := int(idx.trunkSize[u])
	cum := idx.trunkCum[idx.trunkOff[u]:idx.trunkOff[u+1]]
	w := idx.weights.Vertex(u)

	fullTrunks := k / ts
	rem := k - fullTrunks*ts
	if k == deg && rem != 0 {
		// The final (short) trunk is entirely inside the candidate set, so
		// its prebuilt alias table applies: promote it to a full trunk.
		fullTrunks = numTrunks(deg, ts)
		rem = 0
	}

	// Total weight = complete trunks + scanned partial trunk.
	partialW := 0.0
	plo := fullTrunks * ts
	for i := plo; i < plo+rem; i++ {
		partialW += w[i]
	}
	evaluated += int64(rem)
	total := cum[fullTrunks] + partialW
	if !(total > 0) {
		return 0, evaluated, false
	}

	x := r.Range(total)
	if x < cum[fullTrunks] {
		// Case 1 (Figure 5 ①): ITS over complete trunks, alias inside.
		j := sort.Search(fullTrunks, func(t int) bool { return cum[t+1] > x })
		evaluated += int64(bitsLen(fullTrunks))
		if j >= fullTrunks {
			j = fullTrunks - 1
		}
		lo := j * ts
		hi := lo + ts
		if hi > deg {
			hi = deg
		}
		elo, _ := idx.g.EdgeRange(u)
		slot, sok := sampling.SampleAliasSlots(idx.prob[elo+lo:elo+hi], idx.alias[elo+lo:elo+hi], r)
		evaluated += 2 // alias slot + potential redirect
		if !sok {
			return 0, evaluated, false
		}
		return lo + slot, evaluated, true
	}
	// Case 2 (Figure 5 ②): local ITS inside the incomplete trunk.
	i, sok := sampling.LinearITS(w[plo:plo+rem], partialW, r)
	evaluated += int64(rem)
	if !sok {
		return 0, evaluated, false
	}
	return plo + i, evaluated, true
}

// MemoryBytes reports the index footprint: alias storage, trunk prefix sums,
// offsets, and the shared weight array (counted once here because PAT owns
// it during sampling).
func (idx *Index) MemoryBytes() int64 {
	return int64(len(idx.prob))*8 +
		int64(len(idx.alias))*4 +
		int64(len(idx.trunkCum))*8 +
		int64(len(idx.trunkOff))*8 +
		int64(len(idx.trunkSize))*4 +
		idx.weights.MemoryBytes()
}

// TrunkLayout describes vertex u's trunk partitioning for out-of-core
// placement: the edge index boundaries of each trunk, newest first.
func (idx *Index) TrunkLayout(u temporal.Vertex) []int {
	deg := idx.g.Degree(u)
	ts := int(idx.trunkSize[u])
	bounds := []int{0}
	for b := ts; b < deg; b += ts {
		bounds = append(bounds, b)
	}
	if deg > 0 {
		bounds = append(bounds, deg)
	}
	return bounds
}

// bitsLen returns ⌈log2(n+1)⌉, the number of comparisons a binary search over
// n elements performs; used for cost accounting.
func bitsLen(n int) int {
	c := 0
	for n > 0 {
		n >>= 1
		c++
	}
	return c
}
