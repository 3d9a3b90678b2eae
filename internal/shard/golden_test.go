package shard

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/trace"
	"github.com/tea-graph/tea/internal/xrand"
)

// referencePaths runs the plain single-process engine — the golden oracle the
// shard cluster must reproduce byte for byte.
func referencePaths(t *testing.T, g *temporal.Graph, spec sampling.WeightSpec, kern core.Kernel, length, walksPer int, seed uint64) []core.Path {
	t.Helper()
	eng, err := core.NewEngine(g, core.App{Name: "golden", Weight: spec}, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(core.WalkConfig{
		Length:         length,
		WalksPerVertex: walksPer,
		Seed:           seed,
		KeepPaths:      true,
		Kernel:         kern,
		Threads:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Paths
}

func newTestNodes(t *testing.T, g *temporal.Graph, spec sampling.WeightSpec, parts int) []*Node {
	t.Helper()
	nodes := make([]*Node, parts)
	for id := 0; id < parts; id++ {
		n, err := NewNode(g, spec, Config{
			ShardID:    id,
			Partitions: parts,
			Threads:    2,
			Metrics:    metrics.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	return nodes
}

// clusterPaths runs req on every node and merges the partial results by walk
// id into a single global path list.
func clusterPaths(t *testing.T, nodes []*Node, caller StepCaller, req WalkRequest, totalWalks int) []core.Path {
	t.Helper()
	merged := make([]core.Path, totalWalks)
	seen := 0
	for _, n := range nodes {
		res, err := n.RunWalks(context.Background(), caller, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost.WalksStarted != res.Cost.WalksFinished() {
			t.Fatalf("shard %d accounting: %+v", n.ShardID(), res.Cost)
		}
		for i, wi := range res.WalkIDs {
			merged[wi] = res.Paths[i]
			seen++
		}
	}
	if seen != totalWalks {
		t.Fatalf("cluster coordinated %d of %d walks", seen, totalWalks)
	}
	return merged
}

// The tentpole's acceptance criterion: seeded walks are byte-identical across
// partition counts {1, 2, 3, 8}, in-process.
func TestGoldenPartitionInvariance(t *testing.T) {
	g := testutil.RandomGraph(t, 120, 3500, 700, 51)
	specs := []sampling.WeightSpec{
		{Kind: sampling.WeightUniform},
		{Kind: sampling.WeightLinearTime},
		sampling.Exponential(0.01),
	}
	const length, walksPer, seed = 15, 2, 9
	total := g.NumVertices() * walksPer
	for _, spec := range specs {
		ref := referencePaths(t, g, spec, core.KernelAuto, length, walksPer, seed)
		for _, parts := range []int{1, 2, 3, 8} {
			nodes := newTestNodes(t, g, spec, parts)
			got := clusterPaths(t, nodes, &InProcess{Nodes: nodes},
				WalkRequest{Length: length, WalksPerVertex: walksPer, Seed: seed, KeepPaths: true}, total)
			if !reflect.DeepEqual(got, ref) {
				for wi := range ref {
					if !reflect.DeepEqual(got[wi], ref[wi]) {
						t.Fatalf("spec=%v parts=%d: walk %d diverges:\n got %v\n ref %v",
							spec.Kind, parts, wi, got[wi], ref[wi])
					}
				}
			}
		}
	}
}

// startWireCluster serves each node over loopback TCP and returns a Peers
// caller per shard (each shard dials every other shard).
func startWireCluster(t *testing.T, nodes []*Node) []StepCaller {
	t.Helper()
	addrs := make(map[int]string, len(nodes))
	for id, n := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.NewServer(ln, n, nil)
		t.Cleanup(func() { srv.Close() })
		addrs[id] = ln.Addr().String()
	}
	callers := make([]StepCaller, len(nodes))
	for id := range nodes {
		peerAddrs := make(map[int]string)
		for pid, a := range addrs {
			if pid != id {
				peerAddrs[pid] = a
			}
		}
		peers := NewPeers(peerAddrs, wire.ClientConfig{Metrics: metrics.NewRegistry()})
		t.Cleanup(peers.Close)
		callers[id] = peers
	}
	return callers
}

// The same invariance over real loopback-TCP wire RPC: the serialized
// migration frames carry everything the walk's determinism needs.
func TestGoldenLoopbackTCPInvariance(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 52)
	spec := sampling.Exponential(0.01)
	const length, seed = 12, 4
	total := g.NumVertices()
	ref := referencePaths(t, g, spec, core.KernelAuto, length, 1, seed)
	for _, parts := range []int{2, 3, 8} {
		nodes := newTestNodes(t, g, spec, parts)
		callers := startWireCluster(t, nodes)
		merged := make([]core.Path, total)
		seen := 0
		for id, n := range nodes {
			res, err := n.RunWalks(context.Background(), callers[id],
				WalkRequest{Length: length, Seed: seed, KeepPaths: true, RequestID: "golden-tcp"})
			if err != nil {
				t.Fatal(err)
			}
			for i, wi := range res.WalkIDs {
				merged[wi] = res.Paths[i]
				seen++
			}
		}
		if seen != total {
			t.Fatalf("parts=%d: %d of %d walks", parts, seen, total)
		}
		if !reflect.DeepEqual(merged, ref) {
			t.Fatalf("parts=%d: TCP paths diverge from engine reference", parts)
		}
	}
}

// Walks must actually cross shards mid-walk for the invariance to mean
// anything; assert the migration counters see real traffic.
func TestCrossShardMigrationHappens(t *testing.T) {
	g := testutil.RandomGraph(t, 150, 4000, 800, 53)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 4)
	caller := &InProcess{Nodes: nodes}
	var migrations, frames, local int64
	for _, n := range nodes {
		res, err := n.RunWalks(context.Background(), caller, WalkRequest{Length: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		migrations += res.Migrations
		frames += res.Frames
		local += res.LocalSteps
	}
	if migrations == 0 {
		t.Fatal("no walker ever crossed a shard boundary")
	}
	if frames == 0 || frames > migrations {
		t.Fatalf("frames=%d migrations=%d: batching broken", frames, migrations)
	}
	// This graph's times are uniform random, so it has no time locality and
	// ≈ (parts-1)/parts of steps go remote, as under hashing.
	frac := float64(migrations) / float64(migrations+local)
	if frac < 0.5 || frac > 0.95 {
		t.Fatalf("remote step share %.2f, want ≈ 3/4", frac)
	}
}

// Mid-walk cancellation: in-flight walks are classified cancelled, accounting
// stays exact, and the run returns promptly.
func TestMidWalkCancellation(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 54)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 3)

	// A caller that cancels the run's context after a few rounds.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := &InProcess{Nodes: nodes}
	var calls atomic.Int64
	caller := stepFunc(func(c context.Context, shardID int, req *wire.StepRequest) (*wire.StepResponse, error) {
		if calls.Add(1) == 3 {
			cancel()
		}
		return inner.Step(c, shardID, req)
	})

	res, err := nodes[0].RunWalks(ctx, caller, WalkRequest{Length: 500, Seed: 2, WalksPerVertex: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if res.Cost.WalksCancelled == 0 {
		t.Fatalf("no walks classified cancelled: %+v", res.Cost)
	}
	if res.Cost.WalksStarted != res.Cost.WalksFinished() {
		t.Fatalf("accounting broken under cancellation: %+v", res.Cost)
	}
}

type stepFunc func(ctx context.Context, shardID int, req *wire.StepRequest) (*wire.StepResponse, error)

func (f stepFunc) Step(ctx context.Context, shardID int, req *wire.StepRequest) (*wire.StepResponse, error) {
	return f(ctx, shardID, req)
}

// A dead peer must abort the run promptly with a PeerError — the fail-fast
// half of the "no hang, no partial silent results" requirement.
func TestPeerDownFailsFast(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 55)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 3)

	// Shard 1 is served over TCP and then killed; shards dial it cold.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	peers := NewPeers(map[int]string{1: deadAddr}, wire.ClientConfig{
		Metrics:      metrics.NewRegistry(),
		RetryBackoff: time.Millisecond,
	})
	defer peers.Close()
	inner := &InProcess{Nodes: nodes}
	caller := stepFunc(func(c context.Context, shardID int, req *wire.StepRequest) (*wire.StepResponse, error) {
		if shardID == 1 {
			return peers.Step(c, shardID, req)
		}
		return inner.Step(c, shardID, req)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err = nodes[0].RunWalks(ctx, caller, WalkRequest{Length: 20, Seed: 3})
	var peerErr *wire.PeerError
	if !errors.As(err, &peerErr) {
		t.Fatalf("want PeerError, got %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("fail-fast took %v", d)
	}
}

// A config-mismatched peer is refused without retry.
func TestConfigMismatchRefused(t *testing.T) {
	g := testutil.RandomGraph(t, 50, 1000, 300, 56)
	right := newTestNodes(t, g, sampling.WeightSpec{}, 2)
	wrong := newTestNodes(t, g, sampling.WeightSpec{}, 3)
	req := &wire.StepRequest{
		Partitions:  2,
		NumVertices: uint32(g.NumVertices()),
		Walkers:     []wire.Walker{{Cur: 0, Arrival: temporal.MinTime, RNG: *xrand.New(1)}},
	}
	if _, err := right[right[0].Partitioner().Owner(0)].HandleStep(context.Background(), req); err != nil {
		t.Fatalf("matching config refused: %v", err)
	}
	if _, err := wrong[0].HandleStep(context.Background(), req); err == nil {
		t.Fatal("mismatched partition count accepted")
	}
}

// Trace propagation (satellite): a peer handling a step under a propagated
// request id must record a shard.step root span whose trace id IS the
// request id, so /debug/tea/trace?id=<X-Request-ID> finds the hop.
func TestTracePropagationAcrossHop(t *testing.T) {
	g := testutil.RandomGraph(t, 60, 1500, 300, 57)
	tr := trace.New(trace.Config{SampleFraction: 1, MaxTraces: 16, MaxSpansPerTrace: 4096})
	peer, err := NewNode(g, sampling.WeightSpec{}, Config{
		ShardID: 1, Partitions: 2, Threads: 1,
		Tracer: tr, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const reqID = "trace-hop-req-1"
	cur := temporal.Vertex(0)
	for peer.Partitioner().Owner(cur) != 1 {
		cur++
	}
	req := &wire.StepRequest{
		RequestID:   reqID,
		Partitions:  2,
		NumVertices: uint32(g.NumVertices()),
		Walkers:     []wire.Walker{{Cur: cur, Arrival: temporal.MinTime, RNG: *xrand.New(1)}},
	}
	if _, err := peer.HandleStep(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	spans, _, ok := tr.Trace(reqID)
	if !ok || len(spans) == 0 {
		t.Fatalf("peer recorded no spans under trace id %q (have %v)", reqID, tr.TraceIDs())
	}
	found := false
	for _, sp := range spans {
		if sp.Name == "shard.step" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shard.step span under %q: %+v", reqID, spans)
	}
}

// Cost parity: the cluster's summed cost equals the single-process engine's
// for the same workload (steps, edges evaluated, classification counts).
func TestCostParityWithEngine(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 2500, 500, 58)
	spec := sampling.WeightSpec{Kind: sampling.WeightLinearRank}
	eng, err := core.NewEngine(g, core.App{Name: "golden", Weight: spec}, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	engRes, err := eng.Run(core.WalkConfig{Length: 10, Seed: 7, Threads: 2, Kernel: core.KernelScalar})
	if err != nil {
		t.Fatal(err)
	}
	nodes := newTestNodes(t, g, spec, 3)
	caller := &InProcess{Nodes: nodes}
	var steps, evaluated, completed, deadEnded, started int64
	for _, n := range nodes {
		res, err := n.RunWalks(context.Background(), caller, WalkRequest{Length: 10, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		steps += res.Cost.Steps
		evaluated += res.Cost.EdgesEvaluated
		completed += res.Cost.WalksCompleted
		deadEnded += res.Cost.WalksDeadEnded
		started += res.Cost.WalksStarted
	}
	if steps != engRes.Cost.Steps || evaluated != engRes.Cost.EdgesEvaluated ||
		completed != engRes.Cost.WalksCompleted || deadEnded != engRes.Cost.WalksDeadEnded ||
		started != engRes.Cost.WalksStarted {
		t.Fatalf("cluster cost {steps %d eval %d comp %d dead %d start %d} vs engine {%d %d %d %d %d}",
			steps, evaluated, completed, deadEnded, started,
			engRes.Cost.Steps, engRes.Cost.EdgesEvaluated, engRes.Cost.WalksCompleted,
			engRes.Cost.WalksDeadEnded, engRes.Cost.WalksStarted)
	}
}

// Explicit source lists: walk ids are global positions in the request's
// source-major order, each id coordinated by exactly one shard.
func TestExplicitSourcesPartitioned(t *testing.T) {
	g := testutil.RandomGraph(t, 80, 2000, 400, 59)
	sources := []temporal.Vertex{3, 3, 17, 42, 8}
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 3)
	caller := &InProcess{Nodes: nodes}
	var ids []int
	for _, n := range nodes {
		res, err := n.RunWalks(context.Background(), caller,
			WalkRequest{Sources: sources, WalksPerVertex: 2, Length: 5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.WalkIDs...)
	}
	sort.Ints(ids)
	if len(ids) != len(sources)*2 {
		t.Fatalf("coordinated %d walks, want %d", len(ids), len(sources)*2)
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("walk ids not a partition of 0..%d: %v", len(sources)*2-1, ids)
		}
	}
	// Out-of-range source is refused.
	if _, err := nodes[0].RunWalks(context.Background(), caller,
		WalkRequest{Sources: []temporal.Vertex{temporal.Vertex(g.NumVertices())}, Length: 5}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}
