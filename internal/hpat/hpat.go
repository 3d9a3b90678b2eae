package hpat

import (
	"time"

	"github.com/tea-graph/tea/internal/par"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// Config controls HPAT index construction.
type Config struct {
	// Threads used for parallel construction; <1 means GOMAXPROCS.
	Threads int
	// DisableAuxIndex turns off the §3.4 auxiliary index so prefix
	// decompositions are recomputed per sample. Used by the Figure 11
	// ablation ("HPAT" vs "HPAT+Index").
	DisableAuxIndex bool
}

// Index is the HPAT over a whole graph: one arena holding every vertex's
// standalone block (BuildBlock's layout: deg+1 prefix sums, then the packed
// alias slots of every trunk of level ≥ minTableLevel) end to end, one block
// offset per vertex, and (optionally) the global auxiliary index. Every
// block's position follows from the degrees alone, so vertices build
// lock-free in parallel (§4.2).
type Index struct {
	g *temporal.Graph

	// u's block is words[off[u]:off[u+1]], BlockWords(deg(u)) words.
	words []uint64
	off   []int64

	aux     *AuxIndex
	buildNS buildTiming
}

// buildTiming records the wall-clock nanoseconds of each §4.2 preprocessing
// phase, reported by the Figure 13 experiments.
type buildTiming struct {
	hpatNS int64
	auxNS  int64
}

// Build constructs the HPAT index over the weighted graph. The index keeps
// no reference to w: sampling reads only the blocks.
func Build(w *sampling.GraphWeights, cfg Config) *Index {
	g := w.Graph()
	// Phase 1: layout. Every vertex's block is fixed up front.
	idx := newLayout(g)
	idx.words = make([]uint64, idx.off[g.NumVertices()])

	// Phase 2: lock-free parallel per-vertex construction.
	start := time.Now()
	par.ForEdges(g.Offsets(), cfg.Threads, func(_, lo, hi int) {
		var scratch BlockScratch
		for u := lo; u < hi; u++ {
			u := temporal.Vertex(u)
			BuildBlock(w.Vertex(u), idx.block(u), &scratch)
		}
	})
	idx.buildNS.hpatNS = int64(time.Since(start))

	// Phase 3: global auxiliary index (§3.4).
	if !cfg.DisableAuxIndex {
		start = time.Now()
		idx.aux = BuildAuxIndex(g.MaxDegree(), cfg.Threads)
		idx.buildNS.auxNS = int64(time.Since(start))
	}
	return idx
}

// newLayout fixes every vertex's block offset from the degree sequence alone.
func newLayout(g *temporal.Graph) *Index {
	numV := g.NumVertices()
	idx := &Index{g: g, off: make([]int64, numV+1)}
	for u := 0; u < numV; u++ {
		idx.off[u+1] = idx.off[u] + int64(BlockWords(g.Degree(temporal.Vertex(u))))
	}
	return idx
}

// block returns u's block.
func (idx *Index) block(u temporal.Vertex) []uint64 {
	return idx.words[idx.off[u]:idx.off[u+1]]
}

// Name identifies the sampler; it reflects whether the auxiliary index is
// active so experiment output distinguishes the Figure 11 configurations.
func (idx *Index) Name() string {
	if idx.aux == nil {
		return "HPAT"
	}
	return "HPAT+Index"
}

// HasAuxIndex reports whether the §3.4 auxiliary index is attached.
func (idx *Index) HasAuxIndex() bool { return idx.aux != nil }

// BuildTimings returns the nanoseconds spent building the trunk tables and
// the auxiliary index, for the Figure 13 preprocessing breakdown.
func (idx *Index) BuildTimings() (hpatNS, auxNS int64) {
	return idx.buildNS.hpatNS, idx.buildNS.auxNS
}

// Sample draws one edge index from the k newest out-edges of u with
// probability proportional to edge weight. evaluated counts array entries
// examined. ok is false when k <= 0 or the prefix carries no weight.
func (idx *Index) Sample(u temporal.Vertex, k int, r *xrand.Rand) (edge int, evaluated int64, ok bool) {
	return SampleBlock(idx.block(u), idx.g.Degree(u), k, idx.aux, r)
}

// MemoryBytes reports the index footprint: the block arena (prefix sums and
// alias slots), the block offsets and the auxiliary index. The per-edge
// weights the index was built from are not part of it.
func (idx *Index) MemoryBytes() int64 {
	n := int64(len(idx.words))*8 + int64(len(idx.off))*8
	if idx.aux != nil {
		n += idx.aux.MemoryBytes()
	}
	return n
}

// Graph returns the underlying temporal graph.
func (idx *Index) Graph() *temporal.Graph { return idx.g }
