package baseline

import (
	"errors"
	"math"
	"testing"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/xrand"
)

// sampler is the structural contract shared with the core engine.
type sampler interface {
	Name() string
	Sample(u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool)
	MemoryBytes() int64
}

func commuteSamplers(t *testing.T, spec sampling.WeightSpec) map[string]sampler {
	t.Helper()
	g := temporal.CommuteGraph()
	gw, err := NewGraphWalker(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	kk, err := NewKnightKing(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewCTDNE(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	w := testutil.Weights(t, g, spec)
	af, err := NewAliasFull(w, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]sampler{"gw": gw, "kk": kk, "ctdne": ct, "alias": af}
}

// All four baselines must sample the exact transition distribution for every
// candidate prefix — they differ in cost, never in correctness.
func TestBaselinesMatchExactDistribution(t *testing.T) {
	specs := map[string]sampling.WeightSpec{
		"uniform": {Kind: sampling.WeightUniform},
		"linear":  {Kind: sampling.WeightLinearRank},
		"exp":     sampling.Exponential(0.3),
	}
	g := temporal.CommuteGraph()
	for sname, spec := range specs {
		w := testutil.Weights(t, g, spec)
		for name, s := range commuteSamplers(t, spec) {
			r := xrand.New(1)
			for _, k := range []int{1, 3, 4, 7} {
				want := append([]float64(nil), w.Vertex(7)[:k]...)
				testutil.CheckDistribution(t, sname+"/"+name, want, 20000, func() (int, bool) {
					e, _, ok := s.Sample(7, k, r)
					return e, ok
				})
			}
		}
	}
}

func TestBaselineDegenerateCases(t *testing.T) {
	for name, s := range commuteSamplers(t, sampling.WeightSpec{Kind: sampling.WeightUniform}) {
		r := xrand.New(2)
		if _, _, ok := s.Sample(7, 0, r); ok {
			t.Errorf("%s: k=0 sampled", name)
		}
		if _, _, ok := s.Sample(1, 1, r); ok {
			t.Errorf("%s: degree-0 vertex sampled", name)
		}
		// k beyond the degree must clamp, not crash.
		if e, _, ok := s.Sample(7, 99, r); !ok || e < 0 || e >= 7 {
			t.Errorf("%s: clamped sample (%d,%v)", name, e, ok)
		}
		if s.MemoryBytes() < 0 {
			t.Errorf("%s: negative memory", name)
		}
	}
}

func TestCustomWeightRejected(t *testing.T) {
	g := temporal.CommuteGraph()
	spec := sampling.WeightSpec{Custom: func(temporal.Time) float64 { return 1 }}
	if _, err := NewGraphWalker(g, spec); !errors.Is(err, ErrCustomWeight) {
		t.Fatalf("GraphWalker err = %v", err)
	}
	if _, err := NewKnightKing(g, spec); !errors.Is(err, ErrCustomWeight) {
		t.Fatalf("KnightKing err = %v", err)
	}
	if _, err := NewCTDNE(g, spec); !errors.Is(err, ErrCustomWeight) {
		t.Fatalf("CTDNE err = %v", err)
	}
}

func TestNames(t *testing.T) {
	want := map[string]string{"gw": "GraphWalker", "kk": "KnightKing", "ctdne": "CTDNE", "alias": "AliasMethod"}
	for key, s := range commuteSamplers(t, sampling.WeightSpec{}) {
		if s.Name() != want[key] {
			t.Errorf("%s name = %q, want %q", key, s.Name(), want[key])
		}
	}
}

// The Figure 2 effect: on skewed exponential weights, KnightKing's rejection
// evaluates orders of magnitude more edges per draw than an exact method,
// and GraphWalker's full scan evaluates O(k); both dwarf the alias method.
func TestCostSeparationOnSkewedWeights(t *testing.T) {
	g := testutil.SkewedGraph(t, 32, 2048)
	spec := sampling.Exponential(0.1) // acceptance ratio ≈ 10/2048 on the hub
	gw, err := NewGraphWalker(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	kk, err := NewKnightKing(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(3)
	deg := g.Degree(0)
	var gwCost, kkCost int64
	const draws = 300
	for i := 0; i < draws; i++ {
		_, c1, ok1 := gw.Sample(0, deg, r)
		_, c2, ok2 := kk.Sample(0, deg, r)
		if !ok1 || !ok2 {
			t.Fatal("draw failed")
		}
		gwCost += c1
		kkCost += c2
	}
	gwAvg := float64(gwCost) / draws
	kkAvg := float64(kkCost) / draws
	if gwAvg < float64(deg) {
		t.Fatalf("GraphWalker avg cost %.0f below degree %d", gwAvg, deg)
	}
	if kkAvg < 50 {
		t.Fatalf("KnightKing rejection cost %.0f suspiciously low for skewed weights", kkAvg)
	}
}

func TestKnightKingFallbackTerminates(t *testing.T) {
	g := testutil.SkewedGraph(t, 16, 512)
	kk, err := NewKnightKing(g, sampling.Exponential(5)) // brutal skew
	if err != nil {
		t.Fatal(err)
	}
	kk.maxTrials = 8
	r := xrand.New(4)
	for i := 0; i < 200; i++ {
		e, _, ok := kk.Sample(0, g.Degree(0), r)
		if !ok || e < 0 || e >= g.Degree(0) {
			t.Fatalf("fallback draw (%d,%v)", e, ok)
		}
	}
}

func TestKnightKingFallbackDistribution(t *testing.T) {
	// With maxTrials=1 most draws take the exact fallback path, which must
	// still produce the right distribution. Exponential weights, because
	// static ones are drawn by ITS and never reach the rejection loop.
	g := temporal.CommuteGraph()
	spec := sampling.Exponential(0.5)
	kk, err := NewKnightKing(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	kk.maxTrials = 1
	w := testutil.Weights(t, g, spec)
	r := xrand.New(5)
	testutil.CheckDistribution(t, "kk-fallback", w.Vertex(7), 40000, func() (int, bool) {
		e, _, ok := kk.Sample(7, 7, r)
		return e, ok
	})
}

func TestAliasFullMemoryBudget(t *testing.T) {
	g := testutil.SkewedGraph(t, 32, 4096) // hub needs ~4096²/2 slots ≈ 100MB
	w := testutil.Weights(t, g, sampling.WeightSpec{})
	if _, err := NewAliasFull(w, 1<<20, 1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("budget err = %v", err)
	}
	if est := EstimateAliasBytes(g); est < int64(4096)*4097/2*12 {
		t.Fatalf("estimate %d too small", est)
	}
}

func TestAliasFullQuadraticMemory(t *testing.T) {
	a := testutil.SkewedGraph(t, 16, 64)
	b := testutil.SkewedGraph(t, 16, 128)
	wa := testutil.Weights(t, a, sampling.WeightSpec{})
	wb := testutil.Weights(t, b, sampling.WeightSpec{})
	afa, err := NewAliasFull(wa, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	afb, err := NewAliasFull(wb, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Hub degree doubled → hub table storage ~4×.
	ra := afa.MemoryBytes() - wa.MemoryBytes()
	rb := afb.MemoryBytes() - wb.MemoryBytes()
	if ratio := float64(rb) / float64(ra); ratio < 3 || ratio > 5 {
		t.Fatalf("alias storage ratio %.2f, want ≈4 (quadratic)", ratio)
	}
}

func TestWeightEvalMatchesGraphWeights(t *testing.T) {
	// The on-demand evaluator must agree (up to a per-vertex constant factor)
	// with the precomputed arrays TEA uses, for every kind.
	g := testutil.RandomGraph(t, 30, 1000, 300, 6)
	for _, spec := range []sampling.WeightSpec{
		{Kind: sampling.WeightUniform},
		{Kind: sampling.WeightLinearTime},
		{Kind: sampling.WeightLinearRank},
		sampling.Exponential(0.05),
	} {
		ev, err := newWeightEval(g, spec)
		if err != nil {
			t.Fatal(err)
		}
		w := testutil.Weights(t, g, spec)
		for u := 0; u < g.NumVertices(); u++ {
			times := g.OutTimes(temporal.Vertex(u))
			if len(times) == 0 {
				continue
			}
			ws := w.Vertex(temporal.Vertex(u))
			// Ratios must match: both normalize within the vertex.
			base := ev.at(times, 0) / ws[0]
			for i := range times {
				got := ev.at(times, i) / ws[i]
				if math.Abs(got-base)/base > 1e-9 {
					t.Fatalf("%v: vertex %d edge %d ratio %v vs %v", spec.Kind, u, i, got, base)
				}
			}
		}
	}
}

func TestWeightEvalDynamicFlag(t *testing.T) {
	g := temporal.CommuteGraph()
	ev, err := newWeightEval(g, sampling.Exponential(1))
	if err != nil {
		t.Fatal(err)
	}
	if !ev.dynamic() {
		t.Fatal("exponential not flagged dynamic")
	}
	ev, err = newWeightEval(g, sampling.WeightSpec{Kind: sampling.WeightLinearTime})
	if err != nil {
		t.Fatal(err)
	}
	if ev.dynamic() {
		t.Fatal("linear flagged dynamic")
	}
}

func BenchmarkGraphWalkerSample(b *testing.B) {
	benchBaseline(b, func(g *temporal.Graph, spec sampling.WeightSpec) (sampler, error) {
		return NewGraphWalker(g, spec)
	})
}

func BenchmarkKnightKingSample(b *testing.B) {
	benchBaseline(b, func(g *temporal.Graph, spec sampling.WeightSpec) (sampler, error) {
		return NewKnightKing(g, spec)
	})
}

func BenchmarkCTDNESample(b *testing.B) {
	benchBaseline(b, func(g *temporal.Graph, spec sampling.WeightSpec) (sampler, error) {
		return NewCTDNE(g, spec)
	})
}

func benchBaseline(b *testing.B, mk func(*temporal.Graph, sampling.WeightSpec) (sampler, error)) {
	g := testutil.SkewedGraph(b, 64, 4096)
	s, err := mk(g, sampling.Exponential(0.002))
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	deg := g.Degree(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(0, 1+r.IntN(deg), r)
	}
}
