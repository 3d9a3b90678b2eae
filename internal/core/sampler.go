package core

import (
	"context"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// Sampler draws one edge from the k newest out-edges of a vertex with
// probability proportional to the application's edge weights. It is the
// pluggable heart of the engine: HPAT, PAT, plain ITS, the per-candidate-set
// alias method, and the GraphWalker/KnightKing baseline strategies all
// implement it, so every experiment runs the identical walk loop.
//
// evaluated counts edges/array slots examined during the draw — the Figure 2
// "average sampling cost" metric. Implementations must be safe for concurrent
// use by multiple goroutines each holding its own *xrand.Rand.
type Sampler interface {
	// Name identifies the sampler in experiment output.
	Name() string
	// Sample draws an edge index in [0, k) of vertex u. ok is false when the
	// candidate prefix is empty or carries no weight.
	Sample(u temporal.Vertex, k int, r *xrand.Rand) (edgeIdx int, evaluated int64, ok bool)
	// MemoryBytes reports the sampler's index footprint (Figures 9, 12b).
	MemoryBytes() int64
}

// ContextSampler is optionally implemented by samplers that can thread a
// request context into their sampling path. The disk-backed samplers use it
// to open per-block-fetch trace spans under the caller's walk-batch span;
// in-memory samplers have no I/O worth a span and skip it. RunContext only
// routes through SampleCtx when the run is actually being traced, so the
// untraced hot path is byte-for-byte the old Sample call.
type ContextSampler interface {
	Sampler
	// SampleCtx is Sample with the run's context attached.
	SampleCtx(ctx context.Context, u temporal.Vertex, k int, r *xrand.Rand) (edgeIdx int, evaluated int64, ok bool)
}

// BatchSampler is optionally implemented by samplers that can draw for a
// whole frontier in one call. The batched walk kernel (see batch.go) gathers
// the live walkers' positions into flat arrays and hands them over together,
// which lets implementations amortize per-call overhead (slice-header loads,
// dynamic dispatch) and — for the disk-backed samplers — deliberately
// coalesce block fetches for walkers parked on the same vertex.
//
// The contract is element-wise identical to Sample: for every i,
// (edges[i], evals[i], oks[i]) must equal what Sample(us[i], ks[i], rs[i])
// would have produced, consuming rs[i] identically — the scalar path is the
// batched path's correctness oracle. All five slices share one length.
// Implementations must be safe for concurrent use by multiple goroutines
// operating on disjoint frontier chunks.
//
// ctx follows the ContextSampler convention: the engine threads the run
// context only when the run is traced or the sampler performs I/O;
// in-memory samplers ignore it.
type BatchSampler interface {
	Sampler
	// SampleBatch draws one edge per frontier entry: us[i] is the walker's
	// vertex, ks[i] its candidate count, rs[i] its private random stream.
	SampleBatch(ctx context.Context, us []temporal.Vertex, ks []int32, rs []*xrand.Rand, edges []int32, evals []int64, oks []bool)
}

// FrontierGrouper is optionally implemented by BatchSamplers whose per-draw
// cost drops when walkers on the same vertex arrive adjacently (the
// disk-backed samplers: one trunk/adjacency fetch then serves the whole
// group through the block cache). When it returns true the batched kernel
// sorts each step's frontier by vertex before sampling; in-memory samplers
// skip the sort because a RAM lookup is cheaper than ordering the frontier.
type FrontierGrouper interface {
	WantsGroupedFrontier() bool
}

// ITSSampler is MethodITS: the shared per-vertex prefix-sum ITS
// (sampling.ITS) over the engine's weights, the "ITS" row of Figure 12.
type ITSSampler struct {
	*sampling.ITS
	w *sampling.GraphWeights
}

// NewITSSampler builds per-vertex cumulative arrays for the weighted graph.
func NewITSSampler(w *sampling.GraphWeights) *ITSSampler {
	return &ITSSampler{ITS: sampling.NewITS(w), w: w}
}

// Name implements Sampler.
func (s *ITSSampler) Name() string { return "ITS" }

// MemoryBytes implements Sampler: the cumulative arrays plus shared weights.
func (s *ITSSampler) MemoryBytes() int64 {
	return s.ITS.MemoryBytes() + s.w.MemoryBytes()
}
