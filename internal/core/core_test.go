package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/xrand"
)

func allMethods() []Method {
	return []Method{MethodHPAT, MethodHPATNoIndex, MethodPAT, MethodITS}
}

func TestMethodString(t *testing.T) {
	want := map[Method]string{
		MethodHPAT: "HPAT+Index", MethodHPATNoIndex: "HPAT",
		MethodPAT: "PAT", MethodITS: "ITS", Method(42): "Method(42)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
}

func TestAppValidate(t *testing.T) {
	bad := App{Name: "bad", Parameter: func(*temporal.Graph, temporal.Vertex, temporal.Vertex) float64 { return 1 }}
	if bad.Validate() == nil {
		t.Fatal("missing MaxParameter accepted")
	}
	if LinearTime().Validate() != nil || TemporalNode2Vec(0.5, 2, 1).Validate() != nil {
		t.Fatal("built-in app failed validation")
	}
}

func TestNode2VecPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for p=0")
		}
	}()
	TemporalNode2Vec(0, 2, 1)
}

func TestNode2VecBeta(t *testing.T) {
	g := temporal.CommuteGraph()
	g.BuildNeighborIndex()
	app := TemporalNode2Vec(0.5, 2, 1)
	if got := app.Parameter(g, 7, 7); got != 2 {
		t.Fatalf("return-to-prev β = %v, want 1/p = 2", got)
	}
	if got := app.Parameter(g, 7, 4); got != 1 {
		t.Fatalf("neighbor β = %v, want 1", got)
	}
	if got := app.Parameter(g, 4, 9); got != 0.5 {
		t.Fatalf("distant β = %v, want 1/q = 0.5", got)
	}
	if app.MaxParameter != 2 {
		t.Fatalf("MaxParameter = %v", app.MaxParameter)
	}
}

// Every sampler method must produce temporally valid paths: strictly
// increasing edge times along every walk.
func TestWalksAreTemporalPaths(t *testing.T) {
	g := testutil.RandomGraph(t, 200, 6000, 1000, 3)
	for _, m := range allMethods() {
		eng, err := NewEngine(g, ExponentialWalk(0.01), Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(WalkConfig{Length: 20, Seed: 7, KeepPaths: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Paths) != g.NumVertices() {
			t.Fatalf("%v: %d paths", m, len(res.Paths))
		}
		checkedSteps := 0
		for _, p := range res.Paths {
			if len(p.Vertices) != len(p.Times)+1 {
				t.Fatalf("%v: path shape %d vertices, %d times", m, len(p.Vertices), len(p.Times))
			}
			for i := 1; i < len(p.Times); i++ {
				if p.Times[i] <= p.Times[i-1] {
					t.Fatalf("%v: non-increasing times %v", m, p.Times)
				}
			}
			// Every traversed edge must exist in the graph.
			for i := 0; i+1 < len(p.Vertices); i++ {
				if !g.HasNeighbor(p.Vertices[i], p.Vertices[i+1]) {
					t.Fatalf("%v: path uses non-edge %d->%d", m, p.Vertices[i], p.Vertices[i+1])
				}
				checkedSteps++
			}
		}
		if int64(checkedSteps) != res.Cost.Steps {
			t.Fatalf("%v: steps %d != path edges %d", m, res.Cost.Steps, checkedSteps)
		}
	}
}

// All four methods sample from the same distribution; their step-transition
// frequencies out of a hub must agree with the exact weights.
func TestMethodsAgreeOnDistribution(t *testing.T) {
	// A degree-70 hub, so HPAT draws from trunk tables as well as the tail.
	g := testutil.SkewedGraph(t, 8, 70)
	for _, m := range allMethods() {
		eng, err := NewEngine(g, LinearRank(), Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(5)
		// Sample the hub's full candidate set through the engine's sampler.
		want := make([]float64, 70)
		for i := range want {
			want[i] = float64(70 - i)
		}
		testutil.CheckDistribution(t, m.String(), want, 40000, func() (int, bool) {
			e, _, ok := eng.Sampler().Sample(0, 70, r)
			return e, ok
		})
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 500, 11)
	eng, err := NewEngine(g, LinearTime(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Run(WalkConfig{Length: 15, Seed: 42, KeepPaths: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(WalkConfig{Length: 15, Seed: 42, KeepPaths: true, Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost.Steps != b.Cost.Steps {
		t.Fatalf("steps differ: %d vs %d", a.Cost.Steps, b.Cost.Steps)
	}
	for i := range a.Paths {
		if len(a.Paths[i].Vertices) != len(b.Paths[i].Vertices) {
			t.Fatalf("path %d differs across thread counts", i)
		}
		for j := range a.Paths[i].Vertices {
			if a.Paths[i].Vertices[j] != b.Paths[i].Vertices[j] {
				t.Fatalf("path %d vertex %d differs", i, j)
			}
		}
	}
}

func TestRunRespectsWalksPerVertexAndSources(t *testing.T) {
	g := temporal.CommuteGraph()
	eng, err := NewEngine(g, Unbiased(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(WalkConfig{
		WalksPerVertex: 3,
		Length:         5,
		StartVertices:  []temporal.Vertex{7, 8},
		KeepPaths:      true,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 6 {
		t.Fatalf("paths = %d, want 6", len(res.Paths))
	}
	if res.Cost.WalksStarted != 6 {
		t.Fatalf("WalksStarted = %d", res.Cost.WalksStarted)
	}
	for i, p := range res.Paths {
		wantSrc := temporal.Vertex(7)
		if i >= 3 {
			wantSrc = 8
		}
		if p.Vertices[0] != wantSrc {
			t.Fatalf("path %d starts at %d, want %d", i, p.Vertices[0], wantSrc)
		}
	}
}

func TestRunRejectsBadSource(t *testing.T) {
	g := temporal.CommuteGraph()
	eng, err := NewEngine(g, Unbiased(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(WalkConfig{StartVertices: []temporal.Vertex{99}}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestDeadEndAccounting(t *testing.T) {
	// A path graph 0->1->2 with increasing times: every walk dead-ends.
	g := temporal.MustFromEdges([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}, {Src: 1, Dst: 2, Time: 2}})
	eng, err := NewEngine(g, Unbiased(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(WalkConfig{Length: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.WalksCompleted != 0 {
		t.Fatalf("WalksCompleted = %d on a dead-end graph", res.Cost.WalksCompleted)
	}
	if res.Cost.WalksDeadEnded != 3 {
		t.Fatalf("WalksDeadEnded = %d, want 3", res.Cost.WalksDeadEnded)
	}
	// Walk from 0 takes 2 steps, from 1 takes 1, from 2 takes 0.
	if res.Cost.Steps != 3 {
		t.Fatalf("Steps = %d, want 3", res.Cost.Steps)
	}
	if res.Lengths.Count(0) != 1 || res.Lengths.Count(1) != 1 || res.Lengths.Count(2) != 1 {
		t.Fatal("length histogram wrong")
	}
}

// Temporal connectivity of Figure 1: from vertex 9 (edge at t=4) the only
// reachable second hops out of 7 are 4, 5, 6 — "only three paths 9→7→4,
// 9→7→5, and 9→7→6 are valid".
func TestFigure1TemporalConnectivity(t *testing.T) {
	g := temporal.CommuteGraph()
	eng, err := NewEngine(g, Unbiased(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(WalkConfig{
		WalksPerVertex: 3000,
		Length:         2,
		StartVertices:  []temporal.Vertex{9},
		KeepPaths:      true,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[temporal.Vertex]bool{}
	for _, p := range res.Paths {
		if len(p.Vertices) != 3 {
			t.Fatalf("path %v should have 2 steps", p.Vertices)
		}
		if p.Vertices[1] != 7 {
			t.Fatalf("first hop %d, want 7", p.Vertices[1])
		}
		seen[p.Vertices[2]] = true
	}
	for _, v := range []temporal.Vertex{4, 5, 6} {
		if !seen[v] {
			t.Errorf("valid endpoint %d never sampled", v)
		}
	}
	for v := range seen {
		if v != 4 && v != 5 && v != 6 {
			t.Errorf("invalid endpoint %d sampled (violates temporal order)", v)
		}
	}
}

func TestNode2VecBiasObservable(t *testing.T) {
	// Star + triangle: from hub 0 the walk goes to 1; then candidates are
	// {0 (return), 2 (neighbor of 0), 3 (distant)} at equal times.
	edges := []temporal.Edge{
		{Src: 0, Dst: 1, Time: 1},
		{Src: 0, Dst: 2, Time: 5}, // makes 2 a neighbor of 0
		{Src: 1, Dst: 0, Time: 2},
		{Src: 1, Dst: 2, Time: 2},
		{Src: 1, Dst: 3, Time: 2},
	}
	g := temporal.MustFromEdges(edges)
	// Uniform weights isolate the β effect; p=0.25 favors returning.
	app := TemporalNode2Vec(0.25, 4, 1)
	app.Weight = sampling.WeightSpec{Kind: sampling.WeightUniform}
	eng, err := NewEngine(g, app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(WalkConfig{
		WalksPerVertex: 30000, Length: 2,
		StartVertices: []temporal.Vertex{0}, KeepPaths: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[temporal.Vertex]int{}
	for _, p := range res.Paths {
		if len(p.Vertices) == 3 {
			counts[p.Vertices[2]]++
		}
	}
	// Expected ratios ∝ β: return=4, neighbor=1, distant=0.25.
	if !(counts[0] > counts[2] && counts[2] > counts[3]) {
		t.Fatalf("β ordering violated: %v", counts)
	}
	ratio := float64(counts[0]) / float64(counts[2])
	if math.Abs(ratio-4) > 0.5 {
		t.Fatalf("return/neighbor ratio %.2f, want ≈4", ratio)
	}
	if res.Cost.Trials == 0 {
		t.Fatal("β rejection trials not counted")
	}
}

// TEA's headline property: per-step sampling cost is tiny and nearly
// degree-independent for HPAT, but O(k) for a full-scan approach.
func TestHPATEdgesPerStepSmall(t *testing.T) {
	g := testutil.SkewedGraph(t, 64, 8192)
	eng, err := NewEngine(g, ExponentialWalk(0.001), Options{Method: MethodHPAT})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(WalkConfig{Length: 10, Seed: 9, StartVertices: manyZeros(500)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Steps == 0 {
		t.Fatal("no steps taken")
	}
	if eps := res.Cost.EdgesPerStep(); eps > 25 {
		t.Fatalf("HPAT edges/step = %.1f on a degree-8192 hub", eps)
	}
}

func manyZeros(n int) []temporal.Vertex {
	return make([]temporal.Vertex, n)
}

func TestExternalSamplerAndWeights(t *testing.T) {
	g := temporal.CommuteGraph()
	w := testutil.Weights(t, g, sampling.WeightSpec{Kind: sampling.WeightLinearRank})
	its := NewITSSampler(w)
	eng, err := NewEngine(g, LinearRank(), Options{ExternalSampler: its, ExternalWeights: w})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Sampler() != Sampler(its) {
		t.Fatal("external sampler not used")
	}
	if eng.Weights() != w {
		t.Fatal("external weights not used")
	}
	if _, err := eng.Run(WalkConfig{Length: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// An HPAT engine holds no weight array once its index is built; Weights
// rebuilds one equal bit for bit to BuildGraphWeights at any thread count.
// PAT and ITS sample from their arrays and keep them.
func TestHPATEngineRebuildsWeights(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 700, 13)
	app := ExponentialWalk(0.01)
	want := testutil.Weights(t, g, app.Weight)
	for _, m := range allMethods() {
		for _, threads := range []int{1, 3} {
			eng, err := NewEngine(g, app, Options{Method: m, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			isHPAT := m == MethodHPAT || m == MethodHPATNoIndex
			if held := eng.weights != nil; held == isHPAT {
				t.Fatalf("%v at %d threads: engine holds weights = %v", m, threads, held)
			}
			got := eng.Weights()
			if len(got.Flat) != len(want.Flat) {
				t.Fatalf("%v: %d weights, want %d", m, len(got.Flat), len(want.Flat))
			}
			for i := range got.Flat {
				if math.Float64bits(got.Flat[i]) != math.Float64bits(want.Flat[i]) {
					t.Fatalf("%v at %d threads: weight %d = %v, want %v", m, threads, i, got.Flat[i], want.Flat[i])
				}
			}
		}
	}
}

func TestPreprocessStatsPopulated(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 700, 13)
	eng, err := NewEngine(g, TemporalNode2Vec(0.5, 2, 0.01), Options{Method: MethodHPAT})
	if err != nil {
		t.Fatal(err)
	}
	p := eng.Preprocess()
	if p.CandidateSearch <= 0 || p.IndexBuild <= 0 || p.AuxIndexBuild <= 0 ||
		p.NeighborIndex <= 0 || p.Total <= 0 {
		t.Fatalf("preprocess stats not populated: %+v", p)
	}
	if !g.HasCandidatePrecompute() || !g.HasNeighborIndex() {
		t.Fatal("graph indices missing after preprocessing")
	}
	if eng.MemoryBytes() <= 0 {
		t.Fatal("memory estimate not positive")
	}
	if eng.Graph() != g || eng.App().Name != TemporalNode2Vec(0.5, 2, 0.01).Name {
		t.Fatal("accessors broken")
	}
}

func TestSkipCandidatePrecompute(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 2000, 300, 17)
	eng, err := NewEngine(g, LinearTime(), Options{SkipCandidatePrecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.HasCandidatePrecompute() {
		t.Fatal("candidate precompute ran despite skip")
	}
	if _, err := eng.Run(WalkConfig{Length: 10, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestITSSamplerDistribution(t *testing.T) {
	g := temporal.CommuteGraph()
	w := testutil.Weights(t, g, sampling.WeightSpec{Kind: sampling.WeightLinearRank})
	its := NewITSSampler(w)
	if its.Name() != "ITS" {
		t.Fatal("name")
	}
	r := xrand.New(6)
	for k := 1; k <= 7; k++ {
		want := make([]float64, k)
		for i := range want {
			want[i] = float64(7 - i)
		}
		testutil.CheckDistribution(t, "its-core", want, 20000, func() (int, bool) {
			e, _, ok := its.Sample(7, k, r)
			return e, ok
		})
	}
	if _, _, ok := its.Sample(7, 0, r); ok {
		t.Fatal("k=0 sampled")
	}
	if _, _, ok := its.Sample(1, 1, r); ok {
		t.Fatal("degree-0 sampled")
	}
	if its.MemoryBytes() <= 0 {
		t.Fatal("memory")
	}
}

func TestEngineErrorPaths(t *testing.T) {
	g := temporal.CommuteGraph()
	if _, err := NewEngine(g, App{Name: "x", Parameter: func(*temporal.Graph, temporal.Vertex, temporal.Vertex) float64 { return 1 }}, Options{}); err == nil {
		t.Fatal("invalid app accepted")
	}
	if _, err := NewEngine(g, Unbiased(), Options{Method: Method(77)}); err == nil {
		t.Fatal("unknown method accepted")
	}
	bad := App{Name: "badweight", Weight: sampling.WeightSpec{Custom: func(temporal.Time) float64 { return -1 }}}
	if _, err := NewEngine(g, bad, Options{}); err == nil {
		t.Fatal("bad custom weight accepted")
	}
}

func BenchmarkEngineWalkHPAT(b *testing.B) {
	benchWalk(b, MethodHPAT)
}

func BenchmarkEngineWalkITS(b *testing.B) {
	benchWalk(b, MethodITS)
}

func benchWalk(b *testing.B, m Method) {
	g := testutil.RandomGraph(b, 5000, 200000, 100000, 1)
	eng, err := NewEngine(g, ExponentialWalk(0.0001), Options{Method: m})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(WalkConfig{Length: 80, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// RunContext allocates nothing per walk beyond the kept paths themselves: a
// walker's stream is derived into worker state, and a kept path of up to the
// default length is two allocations that never regrow.
func TestRunContextAllocsPerWalk(t *testing.T) {
	g := testutil.RandomGraph(t, 200, 4000, 1000, 7)
	eng, err := NewEngine(g, Unbiased(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]temporal.Vertex, 128)
	for i := range starts {
		starts[i] = temporal.Vertex(i)
	}
	allocs := func(n int, kern Kernel, keep bool) float64 {
		cfg := WalkConfig{StartVertices: starts[:n], Length: 80, Threads: 2, Seed: 3, KeepPaths: keep, Kernel: kern}
		return testing.AllocsPerRun(20, func() {
			if _, err := eng.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, kern := range []Kernel{KernelScalar, KernelBatch} {
		for _, keep := range []bool{false, true} {
			want := 0.0
			if keep {
				want = 2
			}
			if perWalk := (allocs(128, kern, keep) - allocs(64, kern, keep)) / 64; perWalk != want {
				t.Errorf("%v kernel, KeepPaths %v: %.3f allocs per walk, want %v", kern, keep, perWalk, want)
			}
		}
	}
}

// BenchmarkRequestShapedKernels times a served /walk's shape on both
// kernels: 4 walks of 80 steps from one vertex at 1 thread. Vertex u's
// out-edges lead to u+1..u+64, all later than any edge of u, so every walk
// runs its full length over 32 candidates a step.
func BenchmarkRequestShapedKernels(b *testing.B) {
	const v, deg, reach = 20_000, 32, 64
	r := rand.New(rand.NewSource(1))
	edges := make([]temporal.Edge, 0, v*deg)
	for u := 0; u < v; u++ {
		for j := 0; j < deg; j++ {
			if dst := u + 1 + r.Intn(reach); dst < v {
				edges = append(edges, temporal.Edge{Src: temporal.Vertex(u), Dst: temporal.Vertex(dst), Time: temporal.Time(u*deg + j)})
			}
		}
	}
	eng, err := NewEngine(temporal.MustFromEdges(edges), ExponentialWalk(1e-4), Options{Method: MethodHPAT})
	if err != nil {
		b.Fatal(err)
	}
	for _, kern := range []Kernel{KernelScalar, KernelBatch} {
		b.Run(kern.String(), func(b *testing.B) {
			cfg := WalkConfig{WalksPerVertex: 4, Length: 80, Threads: 1, Kernel: kern, StartVertices: []temporal.Vertex{0}}
			var steps int64
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				res, err := eng.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Cost.Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
}
