package shard

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/netchaos"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/xrand"
)

// serveNode exposes a node (or any handler) on loopback TCP.
func serveNode(t *testing.T, h wire.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(ln, h, nil)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// deadAddr returns an address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// validStepRequest builds a fingerprint-matching request for node and its
// replicas, with walkers at vertices node owns.
func validStepRequest(node *Node, walkers int) *wire.StepRequest {
	req := &wire.StepRequest{
		RequestID:   "replica-test",
		Partitions:  uint32(node.Partitions()),
		NumVertices: uint32(node.NumVertices()),
		Walkers:     make([]wire.Walker, walkers),
	}
	var owned []temporal.Vertex
	for v := range temporal.Vertex(node.NumVertices()) {
		if node.Partitioner().Owner(v) == node.ShardID() {
			owned = append(owned, v)
		}
	}
	root := xrand.New(7)
	for i := range req.Walkers {
		w := &req.Walkers[i]
		w.ID = uint64(i)
		w.Cur = owned[i%len(owned)]
		w.Arrival = temporal.MinTime
		root.SplitTo(uint64(i), &w.RNG)
	}
	return req
}

func testReplicaConfig(reg *metrics.Registry) ReplicaPeersConfig {
	return ReplicaPeersConfig{
		Client:  wire.ClientConfig{Metrics: reg, RetryBackoff: time.Millisecond, DialTimeout: time.Second},
		Metrics: reg,
	}
}

func TestReplicaFailoverOnDeadPrimary(t *testing.T) {
	g := testutil.RandomGraph(t, 60, 1500, 300, 61)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 2)
	dead := deadAddr(t)
	live := serveNode(t, nodes[1])

	reg := metrics.NewRegistry()
	rp := NewReplicaPeers(map[int][]string{1: {dead, live}}, testReplicaConfig(reg))
	defer rp.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := validStepRequest(nodes[1], 5)
	resp, err := rp.Step(ctx, 1, req)
	if err != nil {
		t.Fatalf("failover step: %v", err)
	}
	if len(resp.Results) != len(req.Walkers) {
		t.Fatalf("%d results", len(resp.Results))
	}
	if v := reg.Counter(`tea_shard_replica_failovers_total{shard="1"}`).Value(); v != 1 {
		t.Fatalf("failovers = %d", v)
	}
	snap := rp.Snapshot()[1]
	if snap[0].Addr != dead || snap[0].State == "healthy" {
		t.Fatalf("dead replica status: %+v", snap[0])
	}
	if snap[1].State != "healthy" {
		t.Fatalf("live replica status: %+v", snap[1])
	}
	// Subsequent steps prefer the live replica: no more failover increments.
	for i := 0; i < 3; i++ {
		if _, err := rp.Step(ctx, 1, req); err != nil {
			t.Fatal(err)
		}
	}
	if v := reg.Counter(`tea_shard_replica_failovers_total{shard="1"}`).Value(); v != 1 {
		t.Fatalf("health ordering ignored: failovers = %d", v)
	}
}

func TestAllReplicasDownYieldsPeerError(t *testing.T) {
	g := testutil.RandomGraph(t, 40, 800, 200, 62)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 2)
	reg := metrics.NewRegistry()
	rp := NewReplicaPeers(map[int][]string{1: {deadAddr(t), deadAddr(t)}}, testReplicaConfig(reg))
	defer rp.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := rp.Step(ctx, 1, validStepRequest(nodes[1], 1))
	var peer *wire.PeerError
	if !errors.As(err, &peer) {
		t.Fatalf("want PeerError, got %v", err)
	}
	for _, st := range rp.Snapshot()[1] {
		if st.State == "healthy" {
			t.Fatalf("dead replica still healthy: %+v", st)
		}
	}
}

// countingHandler wraps a handler and counts calls.
type countingHandler struct {
	inner wire.Handler
	calls atomic.Int64
}

func (h *countingHandler) HandleStep(ctx context.Context, req *wire.StepRequest) (*wire.StepResponse, error) {
	h.calls.Add(1)
	return h.inner.HandleStep(ctx, req)
}

// A deliberate refusal (fingerprint mismatch) must NOT fail over: siblings
// share the fingerprint and would refuse identically, so retrying them just
// doubles the damage of a misconfigured cluster.
func TestRemoteErrorNotFailedOver(t *testing.T) {
	g := testutil.RandomGraph(t, 40, 800, 200, 63)
	wrong := newTestNodes(t, g, sampling.WeightSpec{}, 3) // wrong partition count
	right := newTestNodes(t, g, sampling.WeightSpec{}, 2)
	sibling := &countingHandler{inner: right[1]}
	addrs := []string{serveNode(t, wrong[1]), serveNode(t, sibling)}

	reg := metrics.NewRegistry()
	rp := NewReplicaPeers(map[int][]string{1: addrs}, testReplicaConfig(reg))
	defer rp.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := rp.Step(ctx, 1, validStepRequest(right[1], 1))
	var remote *wire.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if n := sibling.calls.Load(); n != 0 {
		t.Fatalf("refusal was failed over to sibling (%d calls)", n)
	}
}

// slowHandler delays every response until the given duration or ctx death.
type slowHandler struct {
	inner wire.Handler
	delay time.Duration
}

func (h *slowHandler) HandleStep(ctx context.Context, req *wire.StepRequest) (*wire.StepResponse, error) {
	select {
	case <-time.After(h.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return h.inner.HandleStep(ctx, req)
}

func TestHedgedStepWinsOverSlowPrimary(t *testing.T) {
	g := testutil.RandomGraph(t, 60, 1500, 300, 64)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 2)
	slow := serveNode(t, &slowHandler{inner: nodes[1], delay: 2 * time.Second})
	fast := serveNode(t, nodes[1])

	reg := metrics.NewRegistry()
	cfg := testReplicaConfig(reg)
	cfg.Hedge = HedgeConfig{Enabled: true, Delay: 20 * time.Millisecond}
	rp := NewReplicaPeers(map[int][]string{1: {slow, fast}}, cfg)
	defer rp.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := validStepRequest(nodes[1], 4)
	start := time.Now()
	resp, err := rp.Step(ctx, 1, req)
	if err != nil {
		t.Fatalf("hedged step: %v", err)
	}
	if len(resp.Results) != len(req.Walkers) {
		t.Fatalf("%d results", len(resp.Results))
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("hedge did not rescue the slow primary: %v", d)
	}
	if v := reg.Counter(`tea_shard_replica_hedges_total{shard="1"}`).Value(); v != 1 {
		t.Fatalf("hedges = %d", v)
	}
	if v := reg.Counter(`tea_shard_replica_hedge_wins_total{shard="1"}`).Value(); v != 1 {
		t.Fatalf("hedge wins = %d", v)
	}
	// The slow loser was cancelled, not failed: its breaker must not have
	// tripped toward open.
	for _, st := range rp.Snapshot()[1] {
		if st.State == "open" {
			t.Fatalf("hedge loser counted as breaker failure: %+v", st)
		}
	}
}

// A netchaos stall (packet blackhole) on the primary must be rescued by the
// hedge, and the stalled loser must unwind when the hedge wins (first-wins
// cancellation poisons its deadline and wakes the stall).
func TestHedgeRescuesNetchaosStall(t *testing.T) {
	g := testutil.RandomGraph(t, 60, 1500, 300, 65)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 2)
	primary := serveNode(t, nodes[1])
	sibling := serveNode(t, nodes[1])

	plan := fault.New(3, fault.Fault{Op: fault.Read, Kind: fault.Stall, Target: primary})

	reg := metrics.NewRegistry()
	cfg := testReplicaConfig(reg)
	cfg.Client.Dialer = netchaos.Dial(plan)
	cfg.Hedge = HedgeConfig{Enabled: true, Delay: 15 * time.Millisecond}
	rp := NewReplicaPeers(map[int][]string{1: {primary, sibling}}, cfg)
	defer rp.Close()

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := validStepRequest(nodes[1], 3)
	start := time.Now()
	if _, err := rp.Step(ctx, 1, req); err != nil {
		t.Fatalf("hedged step through stall: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("stall rescue took %v", d)
	}
	// The stalled goroutine must unwind promptly after the winner returns.
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count settles back to at most
// base+2 (allowing runtime noise), failing after 3s.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d > base %d; stacks:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Satellite: the coordinator's fail-fast must cancel the round's outstanding
// step-RPCs — no goroutine parked on a slow peer, no in-flight conns left
// open — the moment the first peer error lands.
func TestFailFastReleasesOutstandingHops(t *testing.T) {
	g := testutil.RandomGraph(t, 150, 4000, 800, 66)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 3)

	// Peer 1 is dead (fails in ~ms); peer 2 wedges until its ctx dies. Without
	// round cancellation the wedged hop holds its goroutine and conn for the
	// full 10s delay.
	dead := deadAddr(t)
	wedged := serveNode(t, &slowHandler{inner: nodes[2], delay: 10 * time.Second})

	reg := metrics.NewRegistry()
	peers := NewReplicaPeers(map[int][]string{1: {dead}, 2: {wedged}}, testReplicaConfig(reg))
	defer peers.Close()

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	start := time.Now()
	_, err := nodes[0].RunWalks(ctx, peers, WalkRequest{Length: 20, Seed: 3, WalksPerVertex: 2})
	var peerErr *wire.PeerError
	if !errors.As(err, &peerErr) {
		t.Fatalf("want PeerError, got %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("fail-fast took %v (wedged hop not cancelled)", d)
	}
	// All hop goroutines have unwound (RunWalks waits on them), so the wedged
	// peer's conns must already be closed, not parked in the pool poisoned.
	for sid, sts := range peers.Snapshot() {
		for _, st := range sts {
			if st.OpenConns != 0 {
				t.Fatalf("shard %d replica %s: %d conns still open after fail-fast", sid, st.Addr, st.OpenConns)
			}
		}
	}
	waitForGoroutines(t, before)
}

// sanity: ReplicaPeers with unknown shard id errors cleanly.
func TestReplicaPeersUnknownShard(t *testing.T) {
	rp := NewReplicaPeers(nil, ReplicaPeersConfig{Metrics: metrics.NewRegistry()})
	defer rp.Close()
	if _, err := rp.Step(context.Background(), 9, &wire.StepRequest{}); err == nil {
		t.Fatal("unknown shard accepted")
	} else if _, ok := err.(*wire.PeerError); ok {
		t.Fatal("unknown shard misclassified as transient peer failure")
	}
}
