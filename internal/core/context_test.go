package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
)

// An already-expired deadline must abort before any walk starts.
func TestRunContextExpiredDeadline(t *testing.T) {
	g := testutil.RandomGraph(t, 200, 4000, 600, 11)
	eng, err := NewEngine(g, LinearTime(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	res, err := eng.RunContext(ctx, WalkConfig{Length: 80, Seed: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("no partial result returned")
	}
	if res.Cost.WalksStarted != 0 {
		t.Fatalf("expired deadline still started %d walks", res.Cost.WalksStarted)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("expired deadline did not return promptly")
	}
}

// Cancelling mid-run must return within one sweep per worker, with the
// partial cost accounting of the walks that did run intact.
func TestRunContextCancelMidRun(t *testing.T) {
	g := testutil.RandomGraph(t, 500, 20000, 100000, 13)
	eng, err := NewEngine(g, LinearTime(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := WalkConfig{WalksPerVertex: 30, Length: 40, Seed: 3, Threads: 4}

	ref, err := eng.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cost.Steps < 10000 {
		t.Fatalf("reference run too small to test cancellation: %d steps", ref.Cost.Steps)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		hops, after atomic.Int64
		cancelled   atomic.Bool
	)
	const threshold = 1000
	cfg.Visitor = func(walkID, step int, from, to temporal.Vertex, at temporal.Time) {
		if cancelled.Load() {
			after.Add(1)
		}
		if hops.Add(1) == threshold {
			cancel()
			cancelled.Store(true)
		}
	}
	res, err := eng.RunContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result returned")
	}
	if res.Cost.Steps < threshold {
		t.Fatalf("partial accounting lost steps: %d < %d", res.Cost.Steps, threshold)
	}
	// This 15,000-walk run takes the batched kernel. Once cancel has
	// returned, each of the 4 workers stops at its next look at the run
	// context, after its current sweep, which steps each of its batchChunk
	// walkers at most once. Steps taken while cancel runs are not counted:
	// a preempted cancel would otherwise leave the other workers stepping.
	if n := after.Load(); n > int64(cfg.Threads*batchChunk) {
		t.Fatalf("cancel did not take effect within one sweep: %d steps after it, want at most %d", n, cfg.Threads*batchChunk)
	}
	if res.Cost.Steps >= ref.Cost.Steps {
		t.Fatalf("cancelled run did all the work: %d vs %d steps", res.Cost.Steps, ref.Cost.Steps)
	}
	if res.Cost.WalksStarted == 0 || res.Cost.WalksStarted >= ref.Cost.WalksStarted {
		t.Fatalf("walks started %d, want in (0, %d)", res.Cost.WalksStarted, ref.Cost.WalksStarted)
	}
}

// A panicking Visitor must fail the run with an error naming the walk; the
// process and a concurrent run on the same engine survive.
func TestVisitorPanicIsIsolated(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 5000, 17)
	eng, err := NewEngine(g, LinearTime(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	goodDone := make(chan error, 1)
	go func() {
		_, err := eng.Run(WalkConfig{WalksPerVertex: 2, Length: 20, Seed: 5})
		goodDone <- err
	}()

	res, err := eng.Run(WalkConfig{
		Length: 20,
		Seed:   6,
		Visitor: func(walkID, step int, from, to temporal.Vertex, at temporal.Time) {
			if walkID == 7 && step == 1 {
				panic("visitor exploded")
			}
		},
	})
	if err == nil {
		t.Fatal("panicking visitor did not fail the run")
	}
	if !strings.Contains(err.Error(), "walk 7") || !strings.Contains(err.Error(), "visitor exploded") {
		t.Fatalf("panic error does not identify the walk: %v", err)
	}
	if res == nil {
		t.Fatal("no partial result on panic")
	}

	if err := <-goodDone; err != nil {
		t.Fatalf("concurrent run on the same engine failed: %v", err)
	}
	// The engine stays usable after a panicked run.
	if _, err := eng.Run(WalkConfig{Length: 10, Seed: 7}); err != nil {
		t.Fatalf("engine unusable after panic: %v", err)
	}
}

// A panicking Dynamic_parameter callback is isolated the same way.
func TestParameterPanicIsIsolated(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 4000, 2000, 23)
	app := App{
		Name:   "boom",
		Weight: LinearTime().Weight,
		Parameter: func(g *temporal.Graph, prev, cand temporal.Vertex) float64 {
			panic("parameter exploded")
		},
		MaxParameter: 1,
		NeedsPrev:    true,
	}
	eng, err := NewEngine(g, app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(WalkConfig{Length: 20, Seed: 2})
	if err == nil || !strings.Contains(err.Error(), "parameter exploded") {
		t.Fatalf("parameter panic not surfaced: %v", err)
	}
}

// Regression: StartTime zero must be expressible. On a graph whose timestamps
// straddle zero, HasStartTime with StartTime 0 must restrict candidates to
// strictly positive edge times, while the legacy zero-value config still
// means "walk from the beginning of time".
func TestStartTimeZeroIsExpressible(t *testing.T) {
	edges := []temporal.Edge{
		{Src: 0, Dst: 1, Time: -5},
		{Src: 0, Dst: 2, Time: 0},
		{Src: 0, Dst: 3, Time: 5},
	}
	g := temporal.MustFromEdges(edges)
	eng, err := NewEngine(g, Unbiased(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	strict, err := eng.Run(WalkConfig{
		WalksPerVertex: 200,
		Length:         1,
		StartVertices:  []temporal.Vertex{0},
		StartTime:      0,
		HasStartTime:   true,
		KeepPaths:      true,
		Seed:           4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range strict.Paths {
		if len(p.Vertices) != 2 || p.Vertices[1] != 3 {
			t.Fatalf("StartTime=0 walk took a non-positive edge: %+v", p)
		}
	}

	legacy, err := eng.Run(WalkConfig{
		WalksPerVertex: 200,
		Length:         1,
		StartVertices:  []temporal.Vertex{0},
		KeepPaths:      true,
		Seed:           4,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[temporal.Vertex]bool{}
	for _, p := range legacy.Paths {
		if len(p.Vertices) == 2 {
			seen[p.Vertices[1]] = true
		}
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("legacy zero-value StartTime no longer walks every edge: %v", seen)
	}
}
