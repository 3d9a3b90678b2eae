package baseline

import (
	"fmt"

	"github.com/tea-graph/tea/internal/par"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// DefaultAliasBudget caps the full alias method at 8 GiB of table storage,
// comfortably above any reasonable in-memory configuration and far below the
// petabyte the paper reports for preprocessing twitter (§1).
const DefaultAliasBudget = 8 << 30

// AliasFull is the naive alias-method strategy of §3.1: one alias table per
// possible candidate edge set. Because a temporal candidate set is a prefix
// of the newest-first adjacency list, vertex u needs deg(u) tables of sizes
// 1..deg(u) — O(D²) space per vertex, which is what rules the method out on
// all but tiny graphs (the OOM bars of Figure 12).
//
// Sampling is O(1): pick the prefix-k table, draw.
type AliasFull struct {
	g     *temporal.Graph
	w     *sampling.GraphWeights
	off   []int64 // per-vertex offset into prob/alias
	prob  []float64
	alias []int32
}

// aliasSlots returns the packed slot count for one vertex: Σ_{k=1..d} k.
func aliasSlots(d int) int64 { return int64(d) * int64(d+1) / 2 }

// NewAliasFull builds every per-prefix alias table, refusing with
// ErrOutOfMemory if the tables would exceed budget bytes (0 selects
// DefaultAliasBudget). threads <1 selects GOMAXPROCS.
func NewAliasFull(w *sampling.GraphWeights, budget int64, threads int) (*AliasFull, error) {
	if budget <= 0 {
		budget = DefaultAliasBudget
	}
	g := w.Graph()
	numV := g.NumVertices()
	off := make([]int64, numV+1)
	for u := 0; u < numV; u++ {
		off[u+1] = off[u] + aliasSlots(g.Degree(temporal.Vertex(u)))
	}
	totalSlots := off[numV]
	if bytes := totalSlots * 12; bytes > budget {
		return nil, fmt.Errorf("%w: %d table slots need %d bytes (budget %d)",
			ErrOutOfMemory, totalSlots, bytes, budget)
	}
	af := &AliasFull{
		g:     g,
		w:     w,
		off:   off,
		prob:  make([]float64, totalSlots),
		alias: make([]int32, totalSlots),
	}
	// Chunks of equal table-slot count: a vertex's work is its deg² / 2
	// slots, not its edges.
	par.ForEdges(off, threads, func(_, lo, hi int) {
		var scratch []int32
		for u := lo; u < hi; u++ {
			deg := g.Degree(temporal.Vertex(u))
			if deg == 0 {
				continue
			}
			if cap(scratch) < 2*deg {
				scratch = make([]int32, 2*deg)
			}
			ws := w.Vertex(temporal.Vertex(u))
			base := off[u]
			for k := 1; k <= deg; k++ {
				s := base + int64(k)*int64(k-1)/2
				sampling.FillAlias(ws[:k], af.prob[s:s+int64(k)], af.alias[s:s+int64(k)], scratch[:2*k])
			}
		}
	})
	return af, nil
}

// Name implements the engine's Sampler contract.
func (af *AliasFull) Name() string { return "AliasMethod" }

// Sample implements the Sampler contract with a single O(1) alias draw from
// the prefix-k table.
func (af *AliasFull) Sample(u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	if k <= 0 {
		return 0, 0, false
	}
	deg := af.g.Degree(u)
	if deg == 0 {
		return 0, 0, false
	}
	if k > deg {
		k = deg
	}
	s := af.off[u] + int64(k)*int64(k-1)/2
	idx, ok := sampling.SampleAliasSlots(af.prob[s:s+int64(k)], af.alias[s:s+int64(k)], r)
	return idx, 2, ok
}

// MemoryBytes implements the Sampler contract: the O(ΣD²) table storage plus
// the shared weights.
func (af *AliasFull) MemoryBytes() int64 {
	return int64(len(af.prob))*8 + int64(len(af.alias))*4 +
		int64(len(af.off))*8 + af.w.MemoryBytes()
}

// EstimateAliasBytes reports the table bytes the full alias method would
// need on graph g, letting experiments print OOM rows without attempting the
// allocation.
func EstimateAliasBytes(g *temporal.Graph) int64 {
	total := int64(0)
	for u := 0; u < g.NumVertices(); u++ {
		total += aliasSlots(g.Degree(temporal.Vertex(u)))
	}
	return total * 12
}
