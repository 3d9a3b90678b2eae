package core

import (
	"context"
	"testing"
	"unsafe"

	"github.com/tea-graph/tea/internal/temporal"
)

// The per-worker accumulator must be padded so no 64-byte cache line can
// hold fields of two adjacent workers: its size must be a multiple of the
// line size and the fields must sit at least one line past the struct start.
func TestWalkerStatePadding(t *testing.T) {
	if s := unsafe.Sizeof(walkerState{}); s%64 != 0 {
		t.Fatalf("sizeof(walkerState) = %d, want a multiple of 64", s)
	}
	if off := unsafe.Offsetof(walkerState{}.cost); off < 64 {
		t.Fatalf("cost offset = %d, want ≥ 64 (leading guard)", off)
	}
}

// A run must publish its aggregates to the default metrics registry at run
// end: started/completed counters and the walk/step totals move by exactly
// the run's cost. Deltas (not absolute values) keep the test independent of
// other tests sharing the process-wide registry.
func TestRunPublishesMetrics(t *testing.T) {
	eng, err := NewEngine(temporal.CommuteGraph(), Unbiased(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	started0 := mRunsStarted.Value()
	completed0 := mRunsCompleted.Value()
	walks0 := mWalks.Value()
	steps0 := mSteps.Value()
	runs0 := mRunSeconds.Count()

	res, err := eng.Run(WalkConfig{Length: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := mRunsStarted.Value() - started0; d != 1 {
		t.Fatalf("runs started delta = %d", d)
	}
	if d := mRunsCompleted.Value() - completed0; d != 1 {
		t.Fatalf("runs completed delta = %d", d)
	}
	if d := mWalks.Value() - walks0; d != res.Cost.WalksStarted {
		t.Fatalf("walks delta = %d, want %d", d, res.Cost.WalksStarted)
	}
	if d := mSteps.Value() - steps0; d != res.Cost.Steps {
		t.Fatalf("steps delta = %d, want %d", d, res.Cost.Steps)
	}
	if d := mRunSeconds.Count() - runs0; d != 1 {
		t.Fatalf("run duration observations delta = %d", d)
	}
}

// A cancelled run counts as cancelled, not completed.
func TestCancelledRunPublishesCancelled(t *testing.T) {
	eng, err := NewEngine(temporal.CommuteGraph(), Unbiased(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cancelled0 := mRunsCancelled.Value()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.RunContext(ctx, WalkConfig{Length: 5}); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if d := mRunsCancelled.Value() - cancelled0; d != 1 {
		t.Fatalf("runs cancelled delta = %d", d)
	}
}

// A run refused for an out-of-range start vertex is never started, so the
// run counters keep started == completed + cancelled + panicked.
func TestRefusedRunIsNotStarted(t *testing.T) {
	eng, err := NewEngine(temporal.CommuteGraph(), Unbiased(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	outcomes := func() int64 { return mRunsCompleted.Value() + mRunsCancelled.Value() + mRunsPanicked.Value() }
	started0, outcomes0 := mRunsStarted.Value(), outcomes()
	if _, err := eng.Run(WalkConfig{Length: 5, StartVertices: []temporal.Vertex{999}}); err == nil {
		t.Fatal("run from vertex 999 of a 10-vertex graph accepted")
	}
	if _, err := eng.Run(WalkConfig{Length: 5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if started, done := mRunsStarted.Value()-started0, outcomes()-outcomes0; started != done || started != 1 {
		t.Fatalf("runs started delta %d, completed+cancelled+panicked delta %d; want 1 and 1", started, done)
	}
}
