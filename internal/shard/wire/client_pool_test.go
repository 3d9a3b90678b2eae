package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/netchaos"
)

// TestRestartPeerNoVisibleRetry is the pool-hygiene regression: a peer
// restart leaves a dead conn in the pool, and the liveness poke on checkout
// must detect it so the next request succeeds WITHOUT consuming a retry
// (before the poke existed, the first attempt burned a retry on the corpse).
func TestRestartPeerNoVisibleRetry(t *testing.T) {
	srv, addr := startServer(t, &echoHandler{})
	reg := metrics.NewRegistry()
	cfg := testClientConfig()
	cfg.Metrics = reg
	c := NewClient(addr, cfg)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Step(ctx, sampleRequest(2)); err != nil {
		t.Fatal(err)
	}
	if c.IdleConns() != 1 {
		t.Fatalf("idle = %d after first step", c.IdleConns())
	}
	srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(ln, &echoHandler{}, nil)
	defer srv2.Close()
	// Give the FIN from the dead server a moment to land in the socket buffer
	// so the liveness poke observes EOF rather than an empty queue.
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Step(ctx, sampleRequest(2)); err != nil {
		t.Fatalf("step after restart: %v", err)
	}
	retries := reg.Counter(`tea_shard_peer_retries_total{peer="` + addr + `"}`).Value()
	if retries != 0 {
		t.Fatalf("restart was retry-visible: %d retries", retries)
	}
	stale := reg.Counter(`tea_shard_conns_stale_total{peer="` + addr + `"}`).Value()
	if stale != 1 {
		t.Fatalf("stale conns reaped = %d, want 1", stale)
	}
}

func TestIdleConnReapedByAge(t *testing.T) {
	_, addr := startServer(t, &echoHandler{})
	reg := metrics.NewRegistry()
	cfg := testClientConfig()
	cfg.Metrics = reg
	cfg.MaxIdleAge = 10 * time.Millisecond
	c := NewClient(addr, cfg)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Step(ctx, sampleRequest(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if _, err := c.Step(ctx, sampleRequest(1)); err != nil {
		t.Fatal(err)
	}
	reaped := reg.Counter(`tea_shard_conns_reaped_total{peer="` + addr + `"}`).Value()
	if reaped != 1 {
		t.Fatalf("reaped = %d, want 1", reaped)
	}
	if got := c.OpenConns(); got != 1 {
		t.Fatalf("open conns = %d, want 1", got)
	}
}

func TestOpenConnsAccounting(t *testing.T) {
	_, addr := startServer(t, &echoHandler{})
	c := NewClient(addr, testClientConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := c.Step(ctx, sampleRequest(3)); err != nil {
			t.Fatal(err)
		}
	}
	if open, idle := c.OpenConns(), c.IdleConns(); open != idle || open != 1 {
		t.Fatalf("open=%d idle=%d after serial steps, want 1/1", open, idle)
	}
	c.Close()
	if open := c.OpenConns(); open != 0 {
		t.Fatalf("open = %d after Close", open)
	}
}

// blockingHandler parks every request until its context dies, standing in
// for a wedged peer.
type blockingHandler struct{}

func (blockingHandler) HandleStep(ctx context.Context, _ *StepRequest) (*StepResponse, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCancelInterruptsInflightExchange: cancelling the Step context must
// interrupt a blocked read immediately (via the poisoned deadline), not wait
// out a connection deadline, and the conn must not leak back into the pool.
func TestCancelInterruptsInflightExchange(t *testing.T) {
	_, addr := startServer(t, blockingHandler{})
	cfg := testClientConfig()
	c := NewClient(addr, cfg)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Step(ctx, sampleRequest(1))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the exchange reach the blocked read
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		var peer *PeerError
		if !errors.As(err, &peer) {
			t.Fatalf("want PeerError, got %v", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("cancellation took %v", d)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled exchange never returned")
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.OpenConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("open conns = %d after cancelled exchange", c.OpenConns())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosDialerDropRetried threads a netchaos plan through the client's
// Dialer hook: a one-shot dial drop is absorbed by the retry loop.
func TestChaosDialerDropRetried(t *testing.T) {
	_, addr := startServer(t, &echoHandler{})
	plan := fault.New(1, fault.Fault{Op: fault.Dial, Once: true})
	cfg := testClientConfig()
	cfg.Dialer = netchaos.Dial(plan)
	c := NewClient(addr, cfg)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Step(ctx, sampleRequest(2)); err != nil {
		t.Fatalf("step through one-shot dial drop: %v", err)
	}
	if plan.Fired() != 1 {
		t.Fatalf("fired = %d", plan.Fired())
	}
}

// TestChaosByteFlipCaughtByCRC: a single flipped bit on the request wire must
// be rejected by the server's CRC (poisoned conn), and the client retry path
// must recover with a clean connection — the response stays correct.
func TestChaosByteFlipCaughtByCRC(t *testing.T) {
	h := &echoHandler{}
	_, addr := startServer(t, h)
	plan := fault.New(99, fault.Fault{Op: fault.Write, Kind: fault.Flip, Once: true})
	cfg := testClientConfig()
	cfg.Dialer = netchaos.Dial(plan)
	c := NewClient(addr, cfg)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := sampleRequest(8)
	resp, err := c.Step(ctx, req)
	if err != nil {
		t.Fatalf("step through byte flip: %v", err)
	}
	if plan.Fired() != 1 {
		t.Fatal("flip never fired")
	}
	for i, r := range resp.Results {
		if r.Evaluated != int64(req.Walkers[i].ID) || resp.Hops[i].Dst != req.Walkers[i].Cur {
			t.Fatalf("result %d corrupted past the CRC: %+v", i, r)
		}
	}
	// The server must have seen exactly one good request: the corrupt frame
	// died at the CRC check, not in the handler.
	h.mu.Lock()
	calls := h.calls
	h.mu.Unlock()
	if calls != 1 {
		t.Fatalf("handler calls = %d, want 1", calls)
	}
}

// TestChaosStallInterruptedByContext: a stalled read (packet blackhole) must
// be bounded by the Step context, not hang forever.
func TestChaosStallInterruptedByContext(t *testing.T) {
	_, addr := startServer(t, &echoHandler{})
	plan := fault.New(1, fault.Fault{Op: fault.Read, Kind: fault.Stall})
	cfg := testClientConfig()
	cfg.Dialer = netchaos.Dial(plan)
	cfg.Retries = -1 // negative → normalized to 0: no retries, one stalled try
	c := NewClient(addr, cfg)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Step(ctx, sampleRequest(1))
	var peer *PeerError
	if !errors.As(err, &peer) {
		t.Fatalf("want PeerError, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("stalled step took %v", d)
	}
}
