package baseline

import (
	"sync"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// GraphWalker models the full-scan sampling strategy the paper measures for
// GraphWalker (§1, Figure 2): a static-graph engine has no structure for
// time-filtered candidate sets, so on every step it regenerates the
// transition distribution of the current candidate edge set — evaluating the
// temporal weight of all k candidates, building the sampling structure, and
// only then drawing. Cost O(D) per step; the 19,046 edges/step of Figure 2.
//
// For static weight kinds (uniform/linear), §4.3 instead credits GraphWalker
// with precomputed-ITS sampling at O(log D) per step; the full scan applies
// to the dynamic (exponential) family, where the engine has no valid
// precomputed distribution to reuse.
type GraphWalker struct {
	g      *temporal.Graph
	eval   weightEval
	static *sampling.ITS // non-nil for walker-independent weights (§4.3)
	pool   sync.Pool     // *gwScratch
}

type gwScratch struct {
	w []float64
}

// NewGraphWalker builds the baseline for the given graph and weight spec.
func NewGraphWalker(g *temporal.Graph, spec sampling.WeightSpec) (*GraphWalker, error) {
	ev, err := newWeightEval(g, spec)
	if err != nil {
		return nil, err
	}
	gw := &GraphWalker{g: g, eval: ev}
	if gw.static, err = ev.staticITS(g); err != nil {
		return nil, err
	}
	gw.pool.New = func() any { return &gwScratch{} }
	return gw, nil
}

// Name implements the engine's Sampler contract.
func (gw *GraphWalker) Name() string { return "GraphWalker" }

// Sample implements the Sampler contract by a full scan: one pass to evaluate
// every candidate weight, one pass of inverse transform sampling over the
// freshly built distribution.
func (gw *GraphWalker) Sample(u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	if k <= 0 {
		return 0, 0, false
	}
	if gw.static != nil {
		return gw.static.Sample(u, k, r)
	}
	deg := gw.g.Degree(u)
	if deg == 0 {
		return 0, 0, false
	}
	if k > deg {
		k = deg
	}
	times := gw.g.OutTimes(u)
	sc := gw.pool.Get().(*gwScratch)
	defer gw.pool.Put(sc)
	if cap(sc.w) < k {
		sc.w = make([]float64, k)
	}
	w := sc.w[:k]
	total := 0.0
	for i := 0; i < k; i++ {
		w[i] = gw.eval.at(times, i)
		total += w[i]
	}
	idx, ok := sampling.LinearITS(w, total, r)
	// Full scan to build the distribution plus the ITS pass.
	return idx, int64(2 * k), ok
}

// MemoryBytes implements the Sampler contract. GraphWalker keeps no temporal
// index beyond the graph itself; its footprint is the per-step scratch, which
// is bounded by the maximum degree per worker.
func (gw *GraphWalker) MemoryBytes() int64 {
	if gw.static != nil {
		return gw.static.MemoryBytes()
	}
	return int64(gw.g.MaxDegree()) * 8
}
