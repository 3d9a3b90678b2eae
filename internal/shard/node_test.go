package shard

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/gen"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/xrand"
)

// outOfRangeRequests are CRC-valid step frames naming a vertex outside the
// graph: a current vertex, or a previous vertex once the walker has stepped.
func outOfRangeRequests(numV int) []*wire.StepRequest {
	bad := []wire.Walker{
		{Cur: temporal.Vertex(numV), Arrival: temporal.MinTime},
		{Cur: 0, Prev: temporal.Vertex(numV), Steps: 1, Arrival: temporal.MinTime},
	}
	var reqs []*wire.StepRequest
	for _, w := range bad {
		w.RNG = *xrand.New(1)
		reqs = append(reqs, &wire.StepRequest{Partitions: 1, NumVertices: uint32(numV), Walkers: []wire.Walker{w}})
	}
	return reqs
}

func TestHandleStepRejectsOutOfRangeVertex(t *testing.T) {
	g := testutil.RandomGraph(t, 51, 600, 300, 62)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 1)
	for i, req := range outOfRangeRequests(g.NumVertices()) {
		if _, err := nodes[0].HandleStep(context.Background(), req); err == nil {
			t.Fatalf("request %d: out-of-range walker accepted", i)
		}
	}
	// Prev is ignored before the first step, as in core.
	ok := &wire.StepRequest{Partitions: 1, NumVertices: uint32(g.NumVertices()),
		Walkers: []wire.Walker{{Cur: 0, Prev: 1 << 30, Arrival: temporal.MinTime, RNG: *xrand.New(1)}}}
	if _, err := nodes[0].HandleStep(context.Background(), ok); err != nil {
		t.Fatalf("first-step walker refused: %v", err)
	}
}

// serveOverWire serves node on loopback TCP and returns a client that counts
// its dials.
func serveOverWire(t *testing.T, node *Node) (*wire.Client, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(ln, node, nil)
	t.Cleanup(func() { srv.Close() })
	dials := new(atomic.Int64)
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
	c := wire.NewClient(ln.Addr().String(), wire.ClientConfig{Metrics: metrics.NewRegistry(), Dialer: dial})
	t.Cleanup(c.Close)
	return c, dials
}

// Over the wire the refusal is a TypeError: the shard process survives and
// the connection keeps serving.
func TestHandleStepOutOfRangeOverWire(t *testing.T) {
	g := testutil.RandomGraph(t, 51, 600, 300, 62)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 1)
	c, dials := serveOverWire(t, nodes[0])
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, req := range outOfRangeRequests(g.NumVertices()) {
		_, err := c.Step(ctx, req)
		var remote *wire.RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("request %d: want RemoteError, got %v", i, err)
		}
	}
	good := &wire.StepRequest{Partitions: 1, NumVertices: uint32(g.NumVertices()),
		Walkers: []wire.Walker{{Cur: 0, Arrival: temporal.MinTime, RNG: *xrand.New(1)}}}
	if _, err := c.Step(ctx, good); err != nil {
		t.Fatalf("follow-up request failed: %v", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d connections dialed, want the one connection kept across refusals", n)
	}
}

// runAheadGraph is a graph on 2 partitions where x0 → x1 → x2 stay on shard
// 0, then x2 → y leaves for shard 1; u0 → u1 stays on shard 0 and u1 has no
// out-edge. y's four late edges to z are half the graph's edges, which puts
// y and z on shard 1 and everything earlier on shard 0.
func runAheadGraph(t *testing.T) (g *temporal.Graph, x0, x1, x2, y, u0, u1 temporal.Vertex) {
	t.Helper()
	x0, x1, x2, u0, u1, y, z := temporal.Vertex(0), temporal.Vertex(1), temporal.Vertex(2), temporal.Vertex(3), temporal.Vertex(4), temporal.Vertex(5), temporal.Vertex(6)
	edges := []temporal.Edge{
		{Src: x0, Dst: x1, Time: 1}, {Src: x1, Dst: x2, Time: 2}, {Src: x2, Dst: y, Time: 3},
		{Src: u0, Dst: u1, Time: 1},
	}
	for at := temporal.Time(10); at < 14; at++ {
		edges = append(edges, temporal.Edge{Src: y, Dst: z, Time: at})
	}
	g = temporal.MustFromEdges(edges)
	part, err := NewPartitioner(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := range temporal.Vertex(g.NumVertices()) {
		want := 0
		if v >= y {
			want = 1
		}
		if part.Owner(v) != want {
			t.Fatalf("vertex %d on shard %d, want %d", v, part.Owner(v), want)
		}
	}
	return g, x0, x1, x2, y, u0, u1
}

// A walker keeps stepping on the shard that holds it and stops for one of
// three reasons: its new vertex belongs to another shard, it dead-ends, or
// it reaches MaxSteps. Its hops are flat in the response, in result order.
func TestAdvanceStopReasons(t *testing.T) {
	g, x0, x1, x2, y, u0, u1 := runAheadGraph(t)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 2)
	walker := func(cur temporal.Vertex, steps uint32) wire.Walker {
		return wire.Walker{Cur: cur, Prev: cur, Steps: steps, Arrival: temporal.MinTime, RNG: *xrand.New(uint64(cur))}
	}
	req := &wire.StepRequest{Partitions: 2, NumVertices: uint32(g.NumVertices()), MaxSteps: 10,
		Walkers: []wire.Walker{walker(x0, 0), walker(u0, 0), walker(x0, 8)}}
	resp, err := nodes[0].HandleStep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wantRes := []struct {
		status byte
		hops   uint32
	}{
		{wire.StatusStepped, 3}, // left for shard 1 at y
		{wire.StatusDeadEnd, 1}, // u1 has no out-edge
		{wire.StatusStepped, 2}, // steps 8 → 10 = MaxSteps
	}
	for i, w := range wantRes {
		if r := resp.Results[i]; r.Status != w.status || r.Hops != w.hops {
			t.Fatalf("walker %d: status %d hops %d, want %d %d", i, r.Status, r.Hops, w.status, w.hops)
		}
	}
	hop := func(v temporal.Vertex, at temporal.Time) wire.Hop { return wire.Hop{Dst: v, At: at} }
	wantHops := []wire.Hop{hop(x1, 1), hop(x2, 2), hop(y, 3), hop(u1, 1), hop(x1, 1), hop(x2, 2)}
	if !reflect.DeepEqual(resp.Hops, wantHops) {
		t.Fatalf("hops %v, want %v", resp.Hops, wantHops)
	}

	// MaxSteps 0 asks for exactly one step.
	one := &wire.StepRequest{Partitions: 2, NumVertices: uint32(g.NumVertices()), Walkers: []wire.Walker{walker(x0, 0)}}
	resp, err = nodes[0].HandleStep(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	if r := resp.Results[0]; r.Status != wire.StatusStepped || r.Hops != 1 || resp.Hops[0] != hop(x1, 1) {
		t.Fatalf("MaxSteps 0: %+v %v, want one hop to %d", r, resp.Hops, x1)
	}
}

// A walker that has already taken MaxSteps steps is refused with a
// TypeError, and the connection keeps serving.
func TestHandleStepRefusesSpentWalkerOverWire(t *testing.T) {
	g, x0, _, _, _, _, _ := runAheadGraph(t)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 2)
	c, dials := serveOverWire(t, nodes[0])
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := &wire.StepRequest{Partitions: 2, NumVertices: uint32(g.NumVertices()), MaxSteps: 4,
		Walkers: []wire.Walker{{Cur: x0, Prev: x0, Steps: 4, Arrival: temporal.MinTime, RNG: *xrand.New(1)}}}
	var remote *wire.RemoteError
	if _, err := c.Step(ctx, req); !errors.As(err, &remote) {
		t.Fatalf("walker at MaxSteps: want RemoteError, got %v", err)
	}
	req.Walkers[0].Steps = 3
	resp, err := c.Step(ctx, req)
	if err != nil {
		t.Fatalf("follow-up request failed: %v", err)
	}
	if r := resp.Results[0]; r.Status != wire.StatusStepped || r.Hops != 1 {
		t.Fatalf("one step left: %+v", r)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d connections dialed, want the one connection kept across the refusal", n)
	}
}

// A walker at a vertex another shard owns is refused with a TypeError rather
// than dead-ended on a partition without its edges, and the connection keeps
// serving.
func TestHandleStepRefusesForeignWalkerOverWire(t *testing.T) {
	g, x0, _, _, y, _, _ := runAheadGraph(t)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 2)
	c, dials := serveOverWire(t, nodes[0])
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := &wire.StepRequest{Partitions: 2, NumVertices: uint32(g.NumVertices()), MaxSteps: 4,
		Walkers: []wire.Walker{{Cur: y, Arrival: temporal.MinTime, RNG: *xrand.New(1)}}}
	var remote *wire.RemoteError
	if _, err := c.Step(ctx, req); !errors.As(err, &remote) {
		t.Fatalf("walker at shard 1's vertex: want RemoteError, got %v", err)
	}
	req.Walkers[0].Cur = x0
	resp, err := c.Step(ctx, req)
	if err != nil {
		t.Fatalf("follow-up request failed: %v", err)
	}
	if r := resp.Results[0]; r.Status != wire.StatusStepped || r.Hops != 3 {
		t.Fatalf("owned walker: %+v, want 3 hops to shard 1", r)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d connections dialed, want the one connection kept across the refusal", n)
	}
}

// On one partition every walk runs to its end inside the first round.
func TestSinglePartitionRunsOneRound(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 63)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 1)
	res, err := nodes[0].RunWalks(context.Background(), &InProcess{Nodes: nodes}, WalkRequest{Length: 30, Seed: 5, WalksPerVertex: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || res.Frames != 0 || res.Migrations != 0 {
		t.Fatalf("rounds %d frames %d migrations %d, want 1 0 0", res.Rounds, res.Frames, res.Migrations)
	}
	if want := res.Cost.Steps + res.Cost.WalksDeadEnded; res.LocalSteps != want {
		t.Fatalf("local steps %d, want steps + dead ends = %d", res.LocalSteps, want)
	}
}

// cancelAfterFirstPoll reports no error to its first Err call and Canceled
// from then on: RunWalks starts its round, and advance's first poll, after
// ctxCheckMask+1 hops, finds the run cancelled.
type cancelAfterFirstPoll struct {
	context.Context
	polls atomic.Int64
}

func (c *cancelAfterFirstPoll) Err() error {
	if c.polls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// One partition advances a whole request in one call, so that call must
// notice cancellation itself: long walks stop within a poll interval, every
// walk is classified, and the run returns Canceled.
func TestSinglePartitionLongWalksCancel(t *testing.T) {
	const chain, walks = 8000, 4
	edges := make([]temporal.Edge, chain-1)
	for i := range edges {
		edges[i] = temporal.Edge{Src: temporal.Vertex(i), Dst: temporal.Vertex(i + 1), Time: temporal.Time(i + 1)}
	}
	g := temporal.MustFromEdges(edges)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 1)
	ctx := &cancelAfterFirstPoll{Context: context.Background()}
	res, err := nodes[0].RunWalks(ctx, &InProcess{Nodes: nodes},
		WalkRequest{Sources: []temporal.Vertex{0}, WalksPerVertex: walks, Length: chain, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if res.Cost.WalksStarted != res.Cost.WalksFinished() || res.Cost.WalksCancelled != walks {
		t.Fatalf("accounting under cancellation: %+v", res.Cost)
	}
	// The first walker stops at the poll; each other one takes its one step.
	if most := int64(ctxCheckMask + 1 + walks - 1); res.Cost.Steps > most {
		t.Fatalf("%d steps after cancellation, want at most %d", res.Cost.Steps, most)
	}
}

// BenchmarkNewNode times one shard start per partition of a 3-way split,
// NewNode's three phases apart: the owner table, the partition subgraph
// copied out of the full graph's rows, and the engine built on it. The
// graph is gen's twitter profile (1.5 M edges), generated in memory.
func BenchmarkNewNode(b *testing.B) {
	const parts = 3
	p := gen.Twitter()
	g, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	app := core.App{Name: "shard", Weight: sampling.Exponential(1 / float64(p.TimeSpan()))}
	var partition, subgraph, engine time.Duration
	b.ResetTimer()
	for range b.N {
		for id := range parts {
			t0 := time.Now()
			part, err := NewPartitioner(g, parts)
			if err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			sub := g.Restrict(func(v temporal.Vertex) bool { return part.Owner(v) == id })
			t2 := time.Now()
			if _, err := core.NewEngine(sub, app, core.Options{}); err != nil {
				b.Fatal(err)
			}
			t3 := time.Now()
			partition, subgraph, engine = partition+t1.Sub(t0), subgraph+t2.Sub(t1), engine+t3.Sub(t2)
		}
	}
	perNode := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N*parts) }
	b.ReportMetric(perNode(partition), "partitioner_ms")
	b.ReportMetric(perNode(subgraph), "subgraph_ms")
	b.ReportMetric(perNode(engine), "engine_ms")
}
