package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/tea-graph/tea/internal/stats"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
)

// The golden determinism suite: the scalar kernel is the batched kernel's
// correctness oracle. Walker randomness comes only from root.Split(walkID),
// so for every sampler, thread count, and workload shape the two kernels
// must produce byte-identical seeded paths, identical cost counters, and
// identical length histograms.

// assertWalkInvariant checks the accounting identity every run must satisfy:
// each started walk is classified exactly once.
func assertWalkInvariant(t *testing.T, label string, c stats.Cost) {
	t.Helper()
	if c.WalksStarted != c.WalksFinished() {
		t.Fatalf("%s: started %d != finished %d (completed %d + dead %d + cancelled %d + panicked %d)",
			label, c.WalksStarted, c.WalksFinished(),
			c.WalksCompleted, c.WalksDeadEnded, c.WalksCancelled, c.WalksPanicked)
	}
}

func assertSameHistogram(t *testing.T, label string, length int, a, b *stats.Histogram) {
	t.Helper()
	for v := 0; v <= length; v++ {
		if a.Count(v) != b.Count(v) {
			t.Fatalf("%s: length histogram differs at %d: %d vs %d", label, v, a.Count(v), b.Count(v))
		}
	}
	if a.Overflow() != b.Overflow() {
		t.Fatalf("%s: histogram overflow differs: %d vs %d", label, a.Overflow(), b.Overflow())
	}
}

func assertSamePaths(t *testing.T, label string, a, b []Path) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: path count differs: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if len(a[i].Vertices) != len(b[i].Vertices) {
			t.Fatalf("%s: walk %d length differs: %d vs %d", label, i, len(a[i].Vertices), len(b[i].Vertices))
		}
		for j := range a[i].Vertices {
			if a[i].Vertices[j] != b[i].Vertices[j] {
				t.Fatalf("%s: walk %d vertex %d differs: %d vs %d", label, i, j, a[i].Vertices[j], b[i].Vertices[j])
			}
		}
		for j := range a[i].Times {
			if a[i].Times[j] != b[i].Times[j] {
				t.Fatalf("%s: walk %d time %d differs: %d vs %d", label, i, j, a[i].Times[j], b[i].Times[j])
			}
		}
	}
}

// runBothKernels executes cfg once per kernel and asserts full equivalence:
// paths, costs, length histograms, and a checksum of every Visitor call.
func runBothKernels(t *testing.T, label string, eng *Engine, cfg WalkConfig) {
	t.Helper()
	cfg.KeepPaths = true
	var visits atomic.Uint64
	cfg.Visitor = func(walkID, step int, from, to temporal.Vertex, at temporal.Time) {
		h := (uint64(walkID)<<32 ^ uint64(step)) * 0x9E3779B97F4A7C15
		h ^= (uint64(from)<<32 ^ uint64(to)) * 0xBF58476D1CE4E5B9
		h ^= uint64(at) * 0x94D049BB133111EB
		visits.Add(h ^ h>>29)
	}
	cfg.Kernel = KernelScalar
	scalar, err := eng.Run(cfg)
	if err != nil {
		t.Fatalf("%s scalar: %v", label, err)
	}
	scalarVisits := visits.Swap(0)
	cfg.Kernel = KernelBatch
	batch, err := eng.Run(cfg)
	if err != nil {
		t.Fatalf("%s batch: %v", label, err)
	}
	if v := visits.Load(); v != scalarVisits {
		t.Fatalf("%s: visitor checksum differs: scalar %#x, batch %#x", label, scalarVisits, v)
	}
	assertWalkInvariant(t, label+" scalar", scalar.Cost)
	assertWalkInvariant(t, label+" batch", batch.Cost)
	if scalar.Cost != batch.Cost {
		t.Fatalf("%s: cost differs\nscalar %+v\nbatch  %+v", label, scalar.Cost, batch.Cost)
	}
	assertSameHistogram(t, label, cfg.Length, scalar.Lengths, batch.Lengths)
	assertSamePaths(t, label, scalar.Paths, batch.Paths)
}

func TestBatchKernelMatchesScalarInMemory(t *testing.T) {
	g := testutil.RandomGraph(t, 400, 12000, 50000, 29)
	apps := []struct {
		name string
		app  App
	}{
		{"linear", LinearTime()},
		{"node2vec", TemporalNode2Vec(0.5, 2, 1)}, // exercises the β-rejection path
	}
	methods := []Method{MethodHPAT, MethodHPATNoIndex, MethodPAT, MethodITS}
	for _, a := range apps {
		for _, m := range methods {
			eng, err := NewEngine(g, a.app, Options{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 3, 8} {
				label := fmt.Sprintf("%s/%s/t%d", a.name, m, threads)
				runBothKernels(t, label, eng, WalkConfig{
					WalksPerVertex: 3,
					Length:         20,
					Seed:           1234,
					Threads:        threads,
				})
			}
		}
	}
}

// Rows beyond the method × application grid:
//   - no candidate precompute, so the batched kernel's post-draw gather takes
//     CandidateCountAfterEdge's binary-search fallback (with and without β);
//   - hubs of ~1000 edges, so prefixes of ≥ 512 draw trunks of level ≥ 9
//     (with and without the auxiliary index).
func TestBatchKernelMatchesScalarRows(t *testing.T) {
	hubs := testutil.RandomGraph(t, 60, 60000, 200000, 37)
	if hubs.Degree(0) < 512 {
		t.Fatalf("hub degree %d does not reach a level-9 trunk", hubs.Degree(0))
	}
	rows := []struct {
		name string
		g    *temporal.Graph
		app  App
		opts Options
	}{
		{"no-precompute", testutil.RandomGraph(t, 400, 12000, 50000, 29), LinearTime(), Options{Method: MethodHPAT, SkipCandidatePrecompute: true}},
		{"no-precompute/node2vec", testutil.RandomGraph(t, 400, 12000, 50000, 30), TemporalNode2Vec(0.5, 2, 1), Options{SkipCandidatePrecompute: true}},
		{"hubs", hubs, ExponentialWalk(1e-4), Options{Method: MethodHPAT}},
		{"hubs/no-index", hubs, LinearTime(), Options{Method: MethodHPATNoIndex}},
	}
	for _, row := range rows {
		eng, err := NewEngine(row.g, row.app, row.opts)
		if err != nil {
			t.Fatal(err)
		}
		if row.opts.SkipCandidatePrecompute && row.g.HasCandidatePrecompute() {
			t.Fatalf("%s: the graph carries a candidate precompute", row.name)
		}
		for _, threads := range []int{1, 4} {
			runBothKernels(t, fmt.Sprintf("%s/t%d", row.name, threads), eng, WalkConfig{
				WalksPerVertex: 3,
				Length:         30,
				Seed:           4321,
				Threads:        threads,
			})
		}
	}
}

// Skewed workloads: most walks hammer one hub, the rest scatter — the load
// shape the dynamic distribution and the grouped frontier exist for.
func TestBatchKernelMatchesScalarSkewedStarts(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 40000, 31)
	eng, err := NewEngine(g, LinearTime(), Options{Method: MethodHPAT})
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]temporal.Vertex, 0, 600)
	for i := 0; i < 500; i++ {
		starts = append(starts, 7) // hub
	}
	for i := 0; i < 100; i++ {
		starts = append(starts, temporal.Vertex(i*3%300))
	}
	for _, threads := range []int{2, 5} {
		runBothKernels(t, fmt.Sprintf("skew/t%d", threads), eng, WalkConfig{
			Length:        25,
			Seed:          77,
			Threads:       threads,
			StartVertices: starts,
		})
	}
}

// Cancellation mid-run: the two kernels may legitimately stop at different
// walks, but both must keep the accounting identity and report the context
// error, and the batched kernel must actually record cancelled walks.
func TestBatchKernelCancelAccounting(t *testing.T) {
	g := testutil.RandomGraph(t, 500, 20000, 100000, 41)
	eng, err := NewEngine(g, LinearTime(), Options{Method: MethodHPAT})
	if err != nil {
		t.Fatal(err)
	}
	for _, kern := range []Kernel{KernelScalar, KernelBatch} {
		ctx, cancel := context.WithCancel(context.Background())
		var hops atomic.Int64
		cfg := WalkConfig{
			WalksPerVertex: 30,
			Length:         40,
			Seed:           9,
			Threads:        4,
			Kernel:         kern,
			Visitor: func(walkID, step int, from, to temporal.Vertex, at temporal.Time) {
				if hops.Add(1) == 800 {
					cancel()
				}
			},
		}
		res, err := eng.RunContext(ctx, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want Canceled", kern, err)
		}
		assertWalkInvariant(t, kern.String(), res.Cost)
		if res.Cost.WalksCancelled == 0 {
			t.Fatalf("%v: cancelled run recorded no cancelled walks: %+v", kern, res.Cost)
		}
		if res.Cost.WalksStarted >= int64(500*30) {
			t.Fatalf("%v: cancelled run started every walk", kern)
		}
	}
}

// A cancelled run must not masquerade as a graph full of temporal dead ends:
// walks cut short by ctx land in WalksCancelled, not WalksDeadEnded, even on
// a graph where genuine dead ends are rare.
func TestCancelledWalksAreNotDeadEnds(t *testing.T) {
	// Chain graph: every walk has exactly one candidate per step, so only
	// walks starting within 10 vertices of the chain's end ever dead-end.
	g := chainGraph(t, 200)
	eng, err := NewEngine(g, Unbiased(), Options{Method: MethodHPAT})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.Run(WalkConfig{WalksPerVertex: 20, Length: 10, Seed: 2, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cost.WalksDeadEnded*10 > ref.Cost.WalksStarted {
		t.Fatalf("chain graph unexpectedly dead-endy: %+v", ref.Cost)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var hops atomic.Int64
	res, err := eng.RunContext(ctx, WalkConfig{
		WalksPerVertex: 20,
		Length:         10,
		Seed:           2,
		Threads:        4,
		Visitor: func(walkID, step int, from, to temporal.Vertex, at temporal.Time) {
			if hops.Add(1) == 500 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	assertWalkInvariant(t, "cancelled", res.Cost)
	if res.Cost.WalksCancelled == 0 {
		t.Fatalf("no walks classified cancelled: %+v", res.Cost)
	}
	if res.Cost.WalksDeadEnded > ref.Cost.WalksDeadEnded {
		t.Fatalf("cancellation inflated dead ends: %d > reference %d", res.Cost.WalksDeadEnded, ref.Cost.WalksDeadEnded)
	}
}

// A panicking visitor under the batched kernel must fail the run with an
// error naming the walk (like the scalar path) and keep the accounting
// identity on the partial result.
func TestBatchKernelPanicAccounting(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 5000, 47)
	eng, err := NewEngine(g, LinearTime(), Options{Method: MethodHPAT})
	if err != nil {
		t.Fatal(err)
	}
	for _, kern := range []Kernel{KernelScalar, KernelBatch} {
		res, err := eng.Run(WalkConfig{
			Length: 20,
			Seed:   6,
			Kernel: kern,
			Visitor: func(walkID, step int, from, to temporal.Vertex, at temporal.Time) {
				if walkID == 7 && step == 1 {
					panic("visitor exploded")
				}
			},
		})
		if err == nil || !strings.Contains(err.Error(), "walk 7") || !strings.Contains(err.Error(), "visitor exploded") {
			t.Fatalf("%v: panic error does not identify the walk: %v", kern, err)
		}
		assertWalkInvariant(t, kern.String(), res.Cost)
		if res.Cost.WalksPanicked != 1 {
			t.Fatalf("%v: WalksPanicked = %d, want 1", kern, res.Cost.WalksPanicked)
		}
	}
}

// Amortized mid-walk cancellation: a single walk far longer than the poll
// interval must stop within ~ctxCheckMask+1 steps of the deadline instead of
// running its full configured length.
func TestScalarLongWalkHonorsCancellation(t *testing.T) {
	// A 4000-vertex chain forces one deterministic ~4000-step walk — far
	// past the poll interval, so only the amortized mid-walk check can stop
	// it near the cancellation point.
	g := chainGraph(t, 4000)
	eng, err := NewEngine(g, Unbiased(), Options{Method: MethodITS})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var hops atomic.Int64
	res, err := eng.RunContext(ctx, WalkConfig{
		Length:        2_000_000,
		Seed:          3,
		Threads:       1,
		Kernel:        KernelScalar,
		StartVertices: []temporal.Vertex{0},
		Visitor: func(walkID, step int, from, to temporal.Vertex, at temporal.Time) {
			if hops.Add(1) == 100 {
				cancel()
			}
		},
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	assertWalkInvariant(t, "long walk", res.Cost)
	if res.Cost.WalksCancelled != 1 {
		t.Fatalf("long walk not classified cancelled: %+v", res.Cost)
	}
	// The walk must have been cut off within one poll interval of the cancel.
	if res.Cost.Steps > 100+ctxCheckMask+1 {
		t.Fatalf("walk ignored cancellation for %d steps", res.Cost.Steps-100)
	}
}

// chainGraph builds a path graph 0→1→…→n-1 with strictly increasing edge
// times, so every walk has exactly one temporal candidate per step.
func chainGraph(t *testing.T, n int) *temporal.Graph {
	t.Helper()
	edges := make([]temporal.Edge, n-1)
	for i := range edges {
		edges[i] = temporal.Edge{Src: temporal.Vertex(i), Dst: temporal.Vertex(i + 1), Time: temporal.Time(i)}
	}
	return temporal.MustFromEdges(edges)
}

func TestKernelResolution(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 6000, 10000, 53)
	eng, err := NewEngine(g, LinearTime(), Options{Method: MethodHPAT})
	if err != nil {
		t.Fatal(err)
	}
	// Auto: big run on a BatchSampler resolves to batch.
	if k, bs := eng.resolveKernel(KernelAuto, 10000, 4); k != KernelBatch || bs == nil {
		t.Fatalf("auto on big run = %v", k)
	}
	// Auto: tiny run stays scalar.
	if k, _ := eng.resolveKernel(KernelAuto, 8, 4); k != KernelScalar {
		t.Fatalf("auto on tiny run = %v", k)
	}
	// Forced scalar stays scalar.
	if k, _ := eng.resolveKernel(KernelScalar, 10000, 4); k != KernelScalar {
		t.Fatalf("forced scalar = %v", k)
	}
	// A sampler without a batch path (PAT) falls back to scalar even when
	// forced.
	eng2, err := NewEngine(g, LinearTime(), Options{Method: MethodPAT})
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := eng2.resolveKernel(KernelBatch, 10000, 4); k != KernelScalar {
		t.Fatalf("forced batch without BatchSampler = %v", k)
	}
}
