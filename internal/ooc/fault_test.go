package ooc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/xrand"
)

// Under a low transient fault rate, retries must make the run exactly
// equivalent to a fault-free one: the injector draws from its own RNG, so the
// walk streams are untouched and every cost counter except ReadRetries must
// match the clean run.
func TestTransientFaultsAreRetriedTransparently(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 1000, 5)
	g.PrecomputeCandidates(1)
	w := testutil.Weights(t, g, sampling.Exponential(0.01))

	clean, err := BuildDiskPAT(w, tempStore(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	resClean, err := NewEngine(g, clean, nil).Run(2, 30, 42)
	if err != nil {
		t.Fatal(err)
	}

	fi := NewFaultInjector(tempStore(t), fault.New(7, fault.Fault{Op: fault.Read, Rate: 0.02, Err: ErrTransient}))
	faulty, err := BuildDiskPAT(w, fi, 4)
	if err != nil {
		t.Fatal(err)
	}
	faulty.SetRetryPolicy(RetryPolicy{MaxRetries: 5, BaseDelay: 0})
	resFaulty, err := NewEngine(g, faulty, nil).Run(2, 30, 42)
	if err != nil {
		t.Fatalf("run under transient faults failed: %v", err)
	}

	if fi.Injected() == 0 {
		t.Fatal("injector never fired; the test exercised nothing")
	}
	if resFaulty.Cost.ReadRetries == 0 {
		t.Fatal("no retries recorded despite injected transient faults")
	}
	if faulty.Err() != nil {
		t.Fatalf("sticky error after recoverable faults: %v", faulty.Err())
	}
	c, f := resClean.Cost, resFaulty.Cost
	if c.Steps != f.Steps || c.EdgesEvaluated != f.EdgesEvaluated ||
		c.WalksStarted != f.WalksStarted || c.WalksCompleted != f.WalksCompleted ||
		c.WalksDeadEnded != f.WalksDeadEnded {
		t.Fatalf("faulty run diverged from clean run:\nclean:  %+v\nfaulty: %+v", c, f)
	}
}

// A permanent fault must surface promptly as a wrapped error naming the
// failed read — not retry forever, and not degrade into every walk silently
// dead-ending.
func TestPermanentFaultSurfacesAsError(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 1000, 5)
	g.PrecomputeCandidates(1)
	w := testutil.Weights(t, g, sampling.WeightSpec{})

	fi := NewFaultInjector(tempStore(t), fault.New(3, fault.Fault{Op: fault.Read}))
	d, err := BuildDiskPAT(w, fi, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(g, d, nil).Run(2, 30, 42)
	if err == nil {
		t.Fatal("permanent fault did not surface")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("error lost its injected marker: %v", err)
	}
	if errors.Is(err, ErrTransient) {
		t.Fatalf("permanent fault classified transient: %v", err)
	}
	if d.Retries() != 0 {
		t.Fatalf("retried a permanent fault %d times", d.Retries())
	}
	if res == nil || res.Cost.WalksStarted == 0 {
		t.Fatal("no partial result returned")
	}
	if res.Cost.WalksStarted > 1 {
		t.Fatalf("run continued for %d walks past a permanent fault", res.Cost.WalksStarted)
	}
}

// Exhausting the retry budget on a persistent transient fault must also
// surface an error rather than hang or spin.
func TestTransientRetryBudgetExhaustion(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 1000, 5)
	g.PrecomputeCandidates(1)
	w := testutil.Weights(t, g, sampling.WeightSpec{})

	fi := NewFaultInjector(tempStore(t), fault.New(3, fault.Fault{Op: fault.Read, Err: ErrTransient}))
	d, err := BuildDiskPAT(w, fi, 4)
	if err != nil {
		t.Fatal(err)
	}
	d.SetRetryPolicy(RetryPolicy{MaxRetries: 2, BaseDelay: 0})
	_, err = NewEngine(g, d, nil).Run(1, 10, 1)
	if err == nil {
		t.Fatal("exhausted retries did not surface an error")
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("error lost its transient marker: %v", err)
	}
	if d.Retries() != 2 {
		t.Fatalf("retries = %d, want 2 (MaxRetries)", d.Retries())
	}
}

// The injector must not perturb sampling when it never fires: rate 0 is a
// pure pass-through.
func TestFaultInjectorZeroRatePassThrough(t *testing.T) {
	g := testutil.RandomGraph(t, 200, 4000, 800, 9)
	g.PrecomputeCandidates(1)
	w := testutil.Weights(t, g, sampling.WeightSpec{})

	fi := NewFaultInjector(tempStore(t), fault.New(0))
	d, err := BuildDiskPAT(w, fi, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(1)
	for i := 0; i < 200; i++ {
		d.Sample(5, g.Degree(5), r)
	}
	if fi.Injected() != 0 {
		t.Fatal("zero-rate injector fired")
	}
	if d.Retries() != 0 || d.Err() != nil {
		t.Fatalf("pass-through injector caused retries=%d err=%v", d.Retries(), d.Err())
	}
}

// A cancelled context must stop the out-of-core run between walks, returning
// the partial result with the context's error.
func TestEngineRunContextCancelled(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 1000, 5)
	g.PrecomputeCandidates(1)
	w := testutil.Weights(t, g, sampling.WeightSpec{})

	d, err := BuildDiskPAT(w, tempStore(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewEngine(g, d, nil).RunContext(ctx, 2, 30, 42)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result on cancellation")
	}
	if res.Cost.WalksStarted != 0 {
		t.Fatalf("pre-cancelled run still started %d walks", res.Cost.WalksStarted)
	}
}

// cancellingStore wraps a BlockStore and fires a cancel func after a fixed
// number of reads, simulating a caller abandoning the run while a long walk
// is mid-flight on the device.
type cancellingStore struct {
	BlockStore
	reads  atomic.Int64
	after  int64
	cancel context.CancelFunc // nil until armed
}

func (c *cancellingStore) ReadAt(p []byte, off int64) error {
	if c.cancel != nil && c.reads.Add(1) == c.after {
		c.cancel()
	}
	return c.BlockStore.ReadAt(p, off)
}

// Cancellation arriving mid-walk must classify the interrupted walk as
// cancelled — not as a temporal dead end — and stop the run at the next
// between-walk check with context.Canceled. This exercises core's amortized
// in-walk ctx poll (every 1,024 steps) on a 3,999-step walk, long enough
// that waiting for its natural end would take thousands more device reads.
func TestEngineCancelMidWalkClassifiesCancelled(t *testing.T) {
	const n = 4000
	edges := make([]temporal.Edge, n-1)
	for i := range edges {
		edges[i] = temporal.Edge{Src: temporal.Vertex(i), Dst: temporal.Vertex(i + 1), Time: temporal.Time(i)}
	}
	g := temporal.MustFromEdges(edges)
	g.PrecomputeCandidates(1)
	w := testutil.Weights(t, g, sampling.WeightSpec{})

	cs := &cancellingStore{BlockStore: tempStore(t), after: 256}
	d, err := BuildDiskPAT(w, cs, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs.cancel = cancel // arm only after the build's own I/O is done

	// Three identical starts: walk 0 is cancelled mid-walk, the loop's
	// between-walk check then aborts before walks 1 and 2 begin.
	starts := []temporal.Vertex{0, 0, 0}
	res, err := NewEngine(g, d, nil).RunStarts(ctx, starts, n-1, 42)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d.Err() != nil {
		t.Fatalf("cancellation recorded as a sticky device error: %v", d.Err())
	}
	c := res.Cost
	if c.WalksStarted != 1 {
		t.Fatalf("walks started = %d, want 1", c.WalksStarted)
	}
	if c.WalksCancelled != 1 || c.WalksDeadEnded != 0 || c.WalksCompleted != 0 {
		t.Fatalf("terminal classification cancelled=%d deadEnded=%d completed=%d, want 1/0/0",
			c.WalksCancelled, c.WalksDeadEnded, c.WalksCompleted)
	}
	if got := c.WalksCompleted + c.WalksDeadEnded + c.WalksCancelled + c.WalksPanicked; got != c.WalksStarted {
		t.Fatalf("started %d walks but classified %d", c.WalksStarted, got)
	}
	// The chain forces one step per device read, so the walk must have died
	// shortly after the cancel fired — well before its natural n-1 steps.
	if c.Steps >= n-1 || c.Steps == 0 {
		t.Fatalf("steps = %d, want in (0, %d)", c.Steps, n-1)
	}
}
