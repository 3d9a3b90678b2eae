package shard

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/hpat"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/shard/wire"
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
	// BloomBitsPerEdge sizes the neighbor filter; 0 selects 16
	// (false-positive probability ≈ 4e-4, which can only upgrade a distant
	// candidate's β from 1/q to 1).
	BloomBitsPerEdge int
}

// Node is one shard: the subgraph of its owned vertices' out-edges, their
// HPAT index, and the step executor remote peers call into. A Node both
// serves steps for walkers arriving from peers (HandleStep) and coordinates
// the walks whose source vertex it owns (RunWalks).
type Node struct {
	id     int
	part   *Partitioner
	g      *temporal.Graph // full vertex space, owned out-edges only
	idx    *hpat.Index
	numV   int
	tracer *trace.Tracer
	reg    *metrics.Registry

	// n2v and bloom are set in node2vec mode; maxBeta is the rejection
	// envelope max(1, 1/p, 1/q).
	n2v     *Node2Vec
	bloom   *edgeBloom
	maxBeta float64

	stepsServed *metrics.Counter
	stepBatches *metrics.Counter
}

// NewNode partitions the full graph down to this shard's vertices and builds
// their HPAT. Every process in the cluster loads the same graph file and
// calls NewNode with its own ShardID; the consistent-hash Partitioner makes
// them agree on ownership with no coordination.
func NewNode(g *temporal.Graph, spec sampling.WeightSpec, cfg Config) (*Node, error) {
	if cfg.Partitions < 1 {
		return nil, fmt.Errorf("shard: need at least one partition, got %d", cfg.Partitions)
	}
	if cfg.ShardID < 0 || cfg.ShardID >= cfg.Partitions {
		return nil, fmt.Errorf("shard: shard id %d outside [0, %d)", cfg.ShardID, cfg.Partitions)
	}
	threads := cfg.Threads
	if threads < 1 {
		threads = 0 // BuildGraphWeights/hpat treat <1 as GOMAXPROCS
	}
	part, err := NewPartitioner(cfg.Partitions)
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
	if cfg.Node2Vec != nil {
		n2v := *cfg.Node2Vec
		if !(n2v.P > 0 && n2v.Q > 0) {
			return nil, fmt.Errorf("shard: node2vec parameters must be positive, got p=%v q=%v", n2v.P, n2v.Q)
		}
		if n2v.BloomBitsPerEdge == 0 {
			n2v.BloomBitsPerEdge = 16
		}
		n.n2v = &n2v
		n.bloom = newEdgeBloom(g.NumEdges(), n2v.BloomBitsPerEdge)
		n.maxBeta = math.Max(1, math.Max(1/n2v.P, 1/n2v.Q))
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

	var owned []temporal.Edge
	for _, e := range g.Edges(nil) {
		if part.Owner(e.Src) == cfg.ShardID {
			owned = append(owned, e)
		}
		if n.bloom != nil {
			n.bloom.add(e.Src, e.Dst)
		}
	}
	sub, err := temporal.FromEdges(owned, temporal.WithNumVertices(n.numV))
	if err != nil && len(owned) != 0 {
		return nil, fmt.Errorf("shard: building partition %d subgraph: %w", cfg.ShardID, err)
	}
	if sub == nil {
		sub, _ = temporal.FromEdges(nil, temporal.WithNumVertices(n.numV))
	}
	sub.PrecomputeCandidates(threads)
	w, err := sampling.BuildGraphWeights(sub, spec, threads)
	if err != nil {
		return nil, fmt.Errorf("shard: weights for partition %d: %w", cfg.ShardID, err)
	}
	n.g = sub
	n.idx = hpat.Build(w, hpat.Config{Threads: threads})
	return n, nil
}

// ShardID returns this node's partition id.
func (n *Node) ShardID() int { return n.id }

// Partitions returns the cluster size the node was built for.
func (n *Node) Partitions() int { return n.part.Partitions() }

// Partitioner returns the shared ownership ring.
func (n *Node) Partitioner() *Partitioner { return n.part }

// NumVertices returns the full graph's vertex count (the cluster
// fingerprint carried on every step frame).
func (n *Node) NumVertices() int { return n.numV }

// MemoryBytes reports this shard's index footprint, its node2vec Bloom
// filter included.
func (n *Node) MemoryBytes() int64 {
	b := n.idx.MemoryBytes() + n.g.MemoryBytes()
	if n.bloom != nil {
		b += n.bloom.memoryBytes()
	}
	return b
}

// OwnedEdges returns the number of edges in this shard's partition (edges
// whose source vertex this shard owns).
func (n *Node) OwnedEdges() int { return n.g.NumEdges() }

// HandleStep implements wire.Handler: advance each walker in the request by
// one step on this shard's partition. The request id opens a root trace span
// so /debug/tea/trace on the peer shows the hop under the same timeline as
// the router's and coordinator's spans.
func (n *Node) HandleStep(ctx context.Context, req *wire.StepRequest) (*wire.StepResponse, error) {
	if int(req.Partitions) != n.part.Partitions() || int(req.NumVertices) != n.numV {
		return nil, fmt.Errorf("cluster config mismatch: peer has partitions=%d vertices=%d, this shard has partitions=%d vertices=%d",
			req.Partitions, req.NumVertices, n.part.Partitions(), n.numV)
	}
	// A CRC-valid frame can still name a vertex outside the graph; indexing
	// the CSR arrays with it would panic the process.
	for i := range req.Walkers {
		w := &req.Walkers[i]
		if int(w.Cur) >= n.numV || (w.Steps > 0 && int(w.Prev) >= n.numV) {
			return nil, fmt.Errorf("walker %d: vertex cur=%d prev=%d outside graph with %d vertices", w.ID, w.Cur, w.Prev, n.numV)
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
	n.advance(req.Walkers, resp.Results)
	n.stepBatches.Inc()
	n.stepsServed.Add(int64(len(req.Walkers)))
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

// advance executes one step for each walker against the local partition,
// mirroring core's walk loop draw for draw: Sample, then — in node2vec mode
// once the walker has a previous vertex — the β rejection test, retried up
// to core.BetaTrialCap times before force-accepting the last proposal. The
// walker's candidate count is recomputed here from (Cur, Arrival): the
// single-process engine carries k across steps via CandidateCountAfterEdge,
// which is by construction CandidateCount(dst, at) on the destination's
// adjacency — adjacency this shard owns in full, so the recomputed k is
// identical and the walker's stream is consumed exactly as in-process.
func (n *Node) advance(walkers []wire.Walker, results []wire.StepResult) {
	for i := range walkers {
		w := &walkers[i]
		r := wire.StepResult{Status: wire.StatusDeadEnd}
		if k := n.g.CandidateCount(w.Cur, w.Arrival); k > 0 {
			for trial := 0; trial < core.BetaTrialCap; trial++ {
				edgeIdx, ev, ok := n.idx.Sample(w.Cur, k, &w.RNG)
				r.Evaluated += ev
				if !ok {
					r.Status = wire.StatusDeadEnd
					break
				}
				r.Status = wire.StatusStepped
				r.Dst, r.At = n.g.EdgeAt(w.Cur, edgeIdx)
				if n.n2v == nil || w.Steps == 0 {
					break
				}
				r.Trials++
				if w.RNG.Range(n.maxBeta) <= n.beta(w.Prev, r.Dst) {
					break
				}
				r.Rejected++
			}
		}
		r.RNG = w.RNG
		results[i] = r
	}
}

// beta is core.TemporalNode2Vec's dynamic parameter with the neighbor test
// answered by the Bloom filter.
func (n *Node) beta(prev, cand temporal.Vertex) float64 {
	switch {
	case cand == prev:
		return 1 / n.n2v.P
	case n.bloom.has(prev, cand):
		return 1
	default:
		return 1 / n.n2v.Q
	}
}
