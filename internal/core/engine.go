package core

import (
	"fmt"
	"runtime"
	"time"

	"github.com/tea-graph/tea/internal/hpat"
	"github.com/tea-graph/tea/internal/pat"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
)

// defaultThreads returns the worker count used when a config leaves the
// thread count unset.
func defaultThreads() int { return runtime.GOMAXPROCS(0) }

// Method selects the sampling structure the engine builds.
type Method int

const (
	// MethodHPAT is the paper's default: hierarchical persistent alias tables
	// with the auxiliary index (§3.3–§3.4).
	MethodHPAT Method = iota
	// MethodHPATNoIndex is HPAT with on-the-fly trunk decomposition, the
	// "HPAT" bar of Figure 11.
	MethodHPATNoIndex
	// MethodPAT is the flat persistent alias table (§3.2), also the structure
	// used by out-of-core execution.
	MethodPAT
	// MethodITS is plain inverse transform sampling (Figure 12's ITS row).
	MethodITS
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodHPAT:
		return "HPAT+Index"
	case MethodHPATNoIndex:
		return "HPAT"
	case MethodPAT:
		return "PAT"
	case MethodITS:
		return "ITS"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures engine construction.
type Options struct {
	// Method selects the sampler structure; default MethodHPAT.
	Method Method
	// Threads for parallel preprocessing; <1 means GOMAXPROCS.
	Threads int
	// PATTrunkSize overrides the ⌊√D⌋ trunk policy for MethodPAT.
	PATTrunkSize int
	// SkipCandidatePrecompute disables the O(1) candidate-count table (§4.2),
	// forcing per-step binary searches. The baselines of Table 4 run this way
	// ("both GraphWalker and KnightKing use binary search to search candidate
	// edge sets on sampling, while TEA does not").
	SkipCandidatePrecompute bool
	// ExternalSampler plugs a pre-built sampler (baseline strategies); when
	// set, Method is ignored and no index is constructed.
	ExternalSampler Sampler
	// ExternalWeights reuses an existing weight array instead of rebuilding.
	ExternalWeights *sampling.GraphWeights
}

// PreprocessStats reports where §4.2 preprocessing time went; the Figure 13
// experiments read these.
type PreprocessStats struct {
	CandidateSearch time.Duration // per-in-edge candidate set sizes
	WeightBuild     time.Duration // Dynamic_weight evaluation over all edges
	IndexBuild      time.Duration // PAT/HPAT trunk alias construction
	AuxIndexBuild   time.Duration // §3.4 auxiliary index
	NeighborIndex   time.Duration // ISNEIGHBOR support for node2vec
	Total           time.Duration
}

// Engine executes temporal random walks for one application over one graph,
// following the workflow of Figure 8: preprocess (candidate search, weight
// evaluation, index construction), then repeatedly sample steps.
type Engine struct {
	g       *temporal.Graph
	app     App
	opts    Options
	weights *sampling.GraphWeights
	sampler Sampler
	prep    PreprocessStats
}

// NewEngine preprocesses the graph for the application and returns a ready
// engine. The graph may be shared between engines; the candidate-count and
// neighbor indices are built on it in place (idempotently).
func NewEngine(g *temporal.Graph, app App, opts Options) (*Engine, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	threads := opts.Threads
	if threads < 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	e := &Engine{g: g, app: app, opts: opts}
	totalStart := time.Now()

	if !opts.SkipCandidatePrecompute {
		start := time.Now()
		g.PrecomputeCandidates(threads)
		e.prep.CandidateSearch = time.Since(start)
	}
	if app.NeedsPrev {
		start := time.Now()
		g.BuildNeighborIndex()
		e.prep.NeighborIndex = time.Since(start)
	}

	start := time.Now()
	switch {
	case opts.ExternalWeights != nil:
		e.weights = opts.ExternalWeights
	case opts.ExternalSampler != nil:
		// External samplers (the baseline strategies) evaluate weights on
		// demand; building TEA's arrays would charge them TEA's cost.
	default:
		w, err := sampling.BuildGraphWeights(g, app.Weight, threads)
		if err != nil {
			return nil, fmt.Errorf("core: building weights for %q: %w", app.Name, err)
		}
		e.weights = w
	}
	e.prep.WeightBuild = time.Since(start)

	start = time.Now()
	switch {
	case opts.ExternalSampler != nil:
		e.sampler = opts.ExternalSampler
	case opts.Method == MethodHPAT || opts.Method == MethodHPATNoIndex:
		idx := hpat.Build(e.weights, hpat.Config{
			Threads:         threads,
			DisableAuxIndex: opts.Method == MethodHPATNoIndex,
		})
		hpatNS, auxNS := idx.BuildTimings()
		e.prep.IndexBuild = time.Duration(hpatNS)
		e.prep.AuxIndexBuild = time.Duration(auxNS)
		e.sampler = idx
	case opts.Method == MethodPAT:
		e.sampler = pat.Build(e.weights, pat.Config{TrunkSize: opts.PATTrunkSize, Threads: threads})
		e.prep.IndexBuild = time.Since(start)
	case opts.Method == MethodITS:
		e.sampler = NewITSSampler(e.weights)
		e.prep.IndexBuild = time.Since(start)
	default:
		return nil, fmt.Errorf("core: unknown method %v", opts.Method)
	}
	e.prep.Total = time.Since(totalStart)
	return e, nil
}

// Graph returns the engine's temporal graph.
func (e *Engine) Graph() *temporal.Graph { return e.g }

// App returns the application the engine was built for.
func (e *Engine) App() App { return e.app }

// Sampler returns the active sampling structure.
func (e *Engine) Sampler() Sampler { return e.sampler }

// Weights returns the per-edge weight array.
func (e *Engine) Weights() *sampling.GraphWeights { return e.weights }

// Preprocess returns the preprocessing time breakdown.
func (e *Engine) Preprocess() PreprocessStats { return e.prep }

// MemoryBytes reports the engine's index footprint: sampler plus the graph's
// auxiliary tables (candidate counts, neighbor index).
func (e *Engine) MemoryBytes() int64 {
	return e.sampler.MemoryBytes() + e.g.MemoryBytes()
}
