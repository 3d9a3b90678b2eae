package shard

import (
	"context"
	"fmt"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/stats"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/trace"
)

// Config parameterizes one shard node.
type Config struct {
	// ShardID is this node's partition, in [0, Partitions).
	ShardID int
	// Partitions is the cluster size; every node must agree on it.
	Partitions int
	// Threads bounds index-construction and local-step parallelism; <1 means
	// GOMAXPROCS.
	Threads int
	// Node2Vec, if non-nil, runs temporal node2vec: every step applies the
	// β ∈ {1/p, 1, 1/q} rejection test of core.TemporalNode2Vec, answering
	// "is the candidate a neighbor of the previous vertex?" from a Bloom
	// filter over the full graph's edges, because the previous vertex's
	// adjacency may live on another shard.
	Node2Vec *Node2Vec
	// Tracer, if non-nil, records shard.step spans keyed by the propagated
	// request id so cross-process hops land on one timeline.
	Tracer *trace.Tracer
	// Metrics receives tea_shard_* families; nil means metrics.Default.
	Metrics *metrics.Registry
}

// Node2Vec configures sharded temporal node2vec.
type Node2Vec struct {
	// P and Q are node2vec's return and in-out parameters (must be > 0).
	P, Q float64
}

// bloomBitsPerEdge sizes the node2vec neighbor filter: a false-positive
// probability ≈ 4e-4, which can only upgrade a distant candidate's β from
// 1/q to 1.
const bloomBitsPerEdge = 16

// Node is one shard: a core.Engine over the subgraph of its owned vertices'
// out-edges, and the step executor remote peers call into. A Node both
// serves steps for walkers arriving from peers (HandleStep) and coordinates
// whole walk requests (RunWalks).
type Node struct {
	id     int
	part   *Partitioner
	eng    *core.Engine // full vertex space, owned out-edges only
	numV   int
	tracer *trace.Tracer
	reg    *metrics.Registry
	bloom  *edgeBloom // node2vec's neighbor test; nil otherwise

	stepsServed *metrics.Counter
	stepBatches *metrics.Counter
}

// NewNode partitions the full graph down to this shard's vertices and builds
// an engine over them. Every process in the cluster loads the same graph file
// and calls NewNode with its own ShardID; the Partitioner is a pure function
// of that graph, so they agree on ownership with no coordination.
func NewNode(g *temporal.Graph, spec sampling.WeightSpec, cfg Config) (*Node, error) {
	if cfg.Partitions < 1 {
		return nil, fmt.Errorf("shard: need at least one partition, got %d", cfg.Partitions)
	}
	if cfg.ShardID < 0 || cfg.ShardID >= cfg.Partitions {
		return nil, fmt.Errorf("shard: shard id %d outside [0, %d)", cfg.ShardID, cfg.Partitions)
	}
	part, err := NewPartitioner(g, cfg.Partitions)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	n := &Node{
		id:          cfg.ShardID,
		part:        part,
		numV:        g.NumVertices(),
		tracer:      cfg.Tracer,
		reg:         reg,
		stepsServed: reg.Counter("tea_shard_steps_served_total"),
		stepBatches: reg.Counter("tea_shard_step_batches_total"),
	}
	// Linear-time weights reference the graph's minimum timestamp; anchor it
	// on the full graph so every shard computes identical per-vertex
	// distributions regardless of its local time range.
	if spec.Kind == sampling.WeightLinearTime && spec.Custom == nil {
		globalMin, _ := g.TimeRange()
		spec = sampling.WeightSpec{Custom: func(t temporal.Time) float64 {
			return float64(t-globalMin) + 1
		}}
	}
	app := core.App{Name: "shard", Weight: spec}
	if n2v := cfg.Node2Vec; n2v != nil {
		if !(n2v.P > 0 && n2v.Q > 0) {
			return nil, fmt.Errorf("shard: node2vec parameters must be positive, got p=%v q=%v", n2v.P, n2v.Q)
		}
		bloom := newEdgeBloom(g.NumEdges(), bloomBitsPerEdge)
		n.bloom = bloom
		// The previous vertex's adjacency may live on another shard, so the
		// neighbor test asks the filter, and NeedsPrev stays false: a
		// neighbor index over this partition alone would answer wrongly.
		app.Parameter, app.MaxParameter = core.Node2VecParameter(n2v.P, n2v.Q,
			func(_ *temporal.Graph, prev, cand temporal.Vertex) bool { return bloom.has(prev, cand) })
	}

	// The owned rows are copied out of the CSR arrays, never rebuilt; the
	// Bloom filter reads every row in place.
	if n.bloom != nil {
		for v := range temporal.Vertex(n.numV) {
			for _, d := range g.OutDst(v) {
				n.bloom.add(v, d)
			}
		}
	}
	sub := g.Restrict(func(v temporal.Vertex) bool { return part.Owner(v) == cfg.ShardID })
	n.eng, err = core.NewEngine(sub, app, core.Options{Threads: cfg.Threads})
	if err != nil {
		return nil, fmt.Errorf("shard: partition %d: %w", cfg.ShardID, err)
	}
	return n, nil
}

// ShardID returns this node's partition id.
func (n *Node) ShardID() int { return n.id }

// Partitions returns the cluster size the node was built for.
func (n *Node) Partitions() int { return n.part.Partitions() }

// Partitioner returns the cluster's owner table.
func (n *Node) Partitioner() *Partitioner { return n.part }

// NumVertices returns the full graph's vertex count (the cluster
// fingerprint carried on every step frame).
func (n *Node) NumVertices() int { return n.numV }

// MemoryBytes reports this shard's index footprint, its owner table and
// node2vec Bloom filter included.
func (n *Node) MemoryBytes() int64 {
	b := n.eng.MemoryBytes() + n.part.memoryBytes()
	if n.bloom != nil {
		b += n.bloom.memoryBytes()
	}
	return b
}

// OwnedEdges returns the number of edges in this shard's partition (edges
// whose source vertex this shard owns).
func (n *Node) OwnedEdges() int { return n.eng.Graph().NumEdges() }

// HandleStep implements wire.Handler: advance each walker in the request
// through every consecutive step this shard's partition owns. The request id
// opens a root trace span so /debug/tea/trace on the peer shows the hop under
// the same timeline as the router's and coordinator's spans.
func (n *Node) HandleStep(ctx context.Context, req *wire.StepRequest) (*wire.StepResponse, error) {
	if int(req.Partitions) != n.part.Partitions() || int(req.NumVertices) != n.numV {
		return nil, fmt.Errorf("cluster config mismatch: peer has partitions=%d vertices=%d, this shard has partitions=%d vertices=%d",
			req.Partitions, req.NumVertices, n.part.Partitions(), n.numV)
	}
	// A CRC-valid frame can still name a vertex outside the graph; indexing
	// the CSR arrays with it would panic the process. A walker at a vertex
	// another shard owns would dead-end here on a partition with no edges for
	// it, so it is refused rather than answered with a wrong walk.
	for i := range req.Walkers {
		w := &req.Walkers[i]
		if int(w.Cur) >= n.numV || (w.Steps > 0 && int(w.Prev) >= n.numV) {
			return nil, fmt.Errorf("walker %d: vertex cur=%d prev=%d outside graph with %d vertices", w.ID, w.Cur, w.Prev, n.numV)
		}
		if owner := n.part.Owner(w.Cur); owner != n.id {
			return nil, fmt.Errorf("walker %d: vertex %d is owned by shard %d, not shard %d", w.ID, w.Cur, owner, n.id)
		}
		if req.MaxSteps > 0 && w.Steps >= req.MaxSteps {
			return nil, fmt.Errorf("walker %d: has taken %d steps of at most %d", w.ID, w.Steps, req.MaxSteps)
		}
	}
	var span *trace.Span
	if n.tracer != nil && req.RequestID != "" {
		ctx, span = n.tracer.StartRoot(ctx, "shard.step", req.RequestID)
		if span != nil {
			span.SetInt("shard", int64(n.id))
			span.SetInt("from_shard", int64(req.FromShard))
			span.SetInt("walkers", int64(len(req.Walkers)))
			defer span.End()
		}
	}
	var stepStart time.Time
	if req.Flags&wire.FlagCollectSpans != 0 {
		stepStart = time.Now()
	}
	resp := &wire.StepResponse{Results: make([]wire.StepResult, len(req.Walkers))}
	resp.Hops = n.advance(ctx, req.Walkers, resp.Results, make([]wire.Hop, 0, len(req.Walkers)), req.MaxSteps)
	n.stepBatches.Inc()
	n.stepsServed.Add(attempts(resp.Results))
	if req.Flags&wire.FlagCollectSpans != 0 {
		resp.Spans = []wire.SpanSummary{{
			Name:        "shard.step",
			Shard:       int32(n.id),
			StartMicros: stepStart.UnixMicro(),
			DurMicros:   time.Since(stepStart).Microseconds(),
			Walkers:     int32(len(req.Walkers)),
		}}
	}
	return resp, nil
}

// ctxCheckMask spaces advance's cancellation polls as core's walk loop does:
// ctx.Err() is read once every ctxCheckMask+1 hops.
const ctxCheckMask = 1023

// hopBudget caps the hops one advance call records, so a reply's hop records
// (12 bytes each) stay well inside wire.MaxFrameBytes however long the walks.
const hopBudget = 1 << 20

// advance runs each walker on the local partition until its new vertex is
// owned by another shard, it dead-ends, or its Steps reaches maxSteps (0:
// after one step). Every step is core.Engine.Step, with the walker's state
// updated in place, so its stream is consumed exactly as in-process. The
// candidate count is searched for once per walker, then carried by
// CandidateCountAfterEdge, the §4.2 table core's walk loop reads: right here,
// because this shard holds every out-edge of each vertex it owns and a walker
// steps on only from an owned vertex.
//
// results[i] gets walker i's hop count, status and cost; its hops are
// appended to hops in walker order and the extended slice is returned.
// Cutting a walker short never changes its walk, only the round it finishes
// in, so once ctx is cancelled (polled every ctxCheckMask+1 hops) or the
// call has recorded hopBudget hops, every remaining walker takes one step and
// stops.
func (n *Node) advance(ctx context.Context, walkers []wire.Walker, results []wire.StepResult, hops []wire.Hop, maxSteps uint32) []wire.Hop {
	g := n.eng.Graph()
	start := len(hops)
	runAhead := true
	for i := range walkers {
		w := &walkers[i]
		limit := maxSteps
		if limit == 0 {
			limit = w.Steps + 1
		}
		r := wire.StepResult{Status: wire.StatusDeadEnd}
		var c stats.Cost
		k := g.CandidateCount(w.Cur, w.Arrival)
		for k != 0 {
			edge, dst, at, ok := n.eng.Step(w.Cur, k, w.Prev, w.Steps > 0, &w.RNG, &c)
			if !ok {
				break
			}
			hops = append(hops, wire.Hop{Dst: dst, At: at})
			r.Hops++
			w.Prev, w.Cur, w.Arrival = w.Cur, dst, at
			w.Steps++
			if done := len(hops) - start; runAhead && (done&ctxCheckMask == 0 && ctx.Err() != nil || done >= hopBudget) {
				runAhead = false
			}
			if !runAhead || w.Steps >= limit || n.part.Owner(dst) != n.id {
				r.Status = wire.StatusStepped
				break
			}
			k = g.CandidateCountAfterEdge(w.Prev, edge)
		}
		r.Evaluated, r.Trials, r.Rejected = c.EdgesEvaluated, uint32(c.Trials), uint32(c.Rejected)
		r.RNG = w.RNG
		results[i] = r
	}
	return hops
}

// attempts counts the walker-steps a batch of results was served: every hop,
// plus the attempt that found each dead end.
func attempts(results []wire.StepResult) int64 {
	var a int64
	for i := range results {
		a += int64(results[i].Hops)
		if results[i].Status == wire.StatusDeadEnd {
			a++
		}
	}
	return a
}
