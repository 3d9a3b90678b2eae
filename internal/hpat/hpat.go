package hpat

import (
	"runtime"
	"sync"

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

// Index is the HPAT over a whole graph: per-edge prefix sums, packed alias
// slots for every trunk of every level ≥ minTableLevel, one slot offset per
// vertex, and (optionally) the global auxiliary index. All storage positions
// are computed before construction so vertices build lock-free in parallel.
type Index struct {
	g       *temporal.Graph
	weights *sampling.GraphWeights

	// cum holds per-vertex prefix sums, deg+1 entries each, so vertex u's run
	// starts at its first edge's position plus u.
	cum     []float64
	slots   []uint64
	slotOff []int64

	aux     *AuxIndex
	buildNS buildTiming
}

// buildTiming records the wall-clock nanoseconds of each §4.2 preprocessing
// phase, reported by the Figure 13 experiments.
type buildTiming struct {
	hpatNS int64
	auxNS  int64
}

// Build constructs the HPAT index over the weighted graph.
func Build(w *sampling.GraphWeights, cfg Config) *Index {
	g := w.Graph()
	threads := cfg.Threads
	if threads < 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	numV := g.NumVertices()
	// Phase 1: layout. Every vertex's storage range is fixed up front.
	idx := newLayout(g)
	idx.weights = w
	idx.cum = make([]float64, g.NumEdges()+numV)
	idx.slots = make([]uint64, idx.slotOff[numV])

	// Phase 2: lock-free parallel per-vertex construction.
	start := nanotime()
	var wg sync.WaitGroup
	chunk := (numV + threads - 1) / threads
	if chunk == 0 {
		chunk = 1
	}
	for lo := 0; lo < numV; lo += chunk {
		hi := lo + chunk
		if hi > numV {
			hi = numV
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var scratch blockScratch
			for u := lo; u < hi; u++ {
				u := temporal.Vertex(u)
				buildBlock(w.Vertex(u), idx.cumRun(u), idx.slots[idx.slotOff[u]:idx.slotOff[u+1]], &scratch)
			}
		}(lo, hi)
	}
	wg.Wait()
	idx.buildNS.hpatNS = nanotime() - start

	// Phase 3: global auxiliary index (§3.4).
	if !cfg.DisableAuxIndex {
		start = nanotime()
		idx.aux = BuildAuxIndexParallel(g.MaxDegree(), threads)
		idx.buildNS.auxNS = nanotime() - start
	}
	return idx
}

// newLayout fixes every vertex's slot range from the degree sequence alone.
func newLayout(g *temporal.Graph) *Index {
	numV := g.NumVertices()
	idx := &Index{g: g, slotOff: make([]int64, numV+1)}
	for u := 0; u < numV; u++ {
		idx.slotOff[u+1] = idx.slotOff[u] + slotCount(g.Degree(temporal.Vertex(u)))
	}
	return idx
}

// cumRun returns u's prefix sums, deg+1 entries.
func (idx *Index) cumRun(u temporal.Vertex) []float64 {
	lo, hi := idx.g.EdgeRange(u)
	return idx.cum[lo+int(u) : hi+int(u)+1]
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

// Total returns the total weight of u's k newest out-edges.
func (idx *Index) Total(u temporal.Vertex, k int) float64 {
	return idx.cumRun(u)[k]
}

// Sample draws one edge index from the k newest out-edges of u with
// probability proportional to edge weight. evaluated counts array entries
// examined. ok is false when k <= 0 or the prefix carries no weight.
func (idx *Index) Sample(u temporal.Vertex, k int, r *xrand.Rand) (edge int, evaluated int64, ok bool) {
	cum := idx.cumRun(u)
	deg := len(cum) - 1
	if k <= 0 || deg == 0 {
		return 0, 0, false
	}
	if k > deg {
		k = deg
	}
	var dec []DecompEntry
	if idx.aux != nil {
		dec = idx.aux.Decomp(k)
	} else {
		var buf [maxLevels]DecompEntry
		dec = Decompose(k, buf[:0])
	}
	return sampleBlock(cum, idx.slots[idx.slotOff[u]:idx.slotOff[u+1]], deg, k, dec, r)
}

// MemoryBytes reports the index footprint including the shared weight array
// and the auxiliary index; the HPAT trunk tables dominate, matching the
// paper's observation that the HPAT index is 82–91% of total memory.
func (idx *Index) MemoryBytes() int64 {
	n := int64(len(idx.cum))*8 +
		int64(len(idx.slots))*8 +
		int64(len(idx.slotOff))*8 +
		idx.weights.MemoryBytes()
	if idx.aux != nil {
		n += idx.aux.MemoryBytes()
	}
	return n
}

// Graph returns the underlying temporal graph.
func (idx *Index) Graph() *temporal.Graph { return idx.g }

// Weights returns the shared per-edge weight array.
func (idx *Index) Weights() *sampling.GraphWeights { return idx.weights }
