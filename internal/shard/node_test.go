package shard

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

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

// Over the wire the refusal is a TypeError: the shard process survives and
// the connection keeps serving.
func TestHandleStepOutOfRangeOverWire(t *testing.T) {
	g := testutil.RandomGraph(t, 51, 600, 300, 62)
	nodes := newTestNodes(t, g, sampling.WeightSpec{}, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(ln, nodes[0], nil)
	defer srv.Close()
	var dials atomic.Int64
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
	c := wire.NewClient(ln.Addr().String(), wire.ClientConfig{Metrics: metrics.NewRegistry(), RetryBackoff: time.Millisecond, Dialer: dial})
	defer c.Close()
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
