package sampling

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// checkDistribution draws n samples via draw and verifies the empirical
// frequencies match want (unnormalized weights) with a chi-square test at a
// generous threshold. Used across the package to validate samplers.
func checkDistribution(t *testing.T, name string, want []float64, n int, draw func() (int, bool)) {
	t.Helper()
	total := 0.0
	for _, w := range want {
		total += w
	}
	counts := make([]int, len(want))
	for i := 0; i < n; i++ {
		idx, ok := draw()
		if !ok {
			t.Fatalf("%s: draw %d failed", name, i)
		}
		if idx < 0 || idx >= len(want) {
			t.Fatalf("%s: index %d out of range %d", name, idx, len(want))
		}
		counts[idx]++
	}
	chi2 := 0.0
	for i, w := range want {
		expect := float64(n) * w / total
		if expect == 0 {
			if counts[i] != 0 {
				t.Fatalf("%s: zero-weight element %d sampled %d times", name, i, counts[i])
			}
			continue
		}
		d := float64(counts[i]) - expect
		chi2 += d * d / expect
	}
	// 99.9th percentile of chi-square is roughly df + 4.4*sqrt(df) + 10 for
	// the df range used in these tests; be generous to avoid flakes while
	// still catching systematic bias.
	df := float64(len(want) - 1)
	limit := df + 5*math.Sqrt(2*df) + 12
	if chi2 > limit {
		t.Fatalf("%s: chi-square %.1f exceeds %.1f (counts %v, weights %v)", name, chi2, limit, counts, want)
	}
}

// vertexITS builds the shared ITS over a two-vertex graph: vertex 0 has one
// out-edge per weight, newest first, and vertex 1 has none.
func vertexITS(tb testing.TB, weights []float64) *ITS {
	tb.Helper()
	edges := make([]temporal.Edge, len(weights))
	for i := range edges {
		edges[i] = temporal.Edge{Src: 0, Dst: 1, Time: temporal.Time(len(weights) - i)}
	}
	g, err := temporal.FromEdges(edges, temporal.WithNumVertices(2))
	if err != nil {
		tb.Fatal(err)
	}
	return NewITS(WrapGraphWeights(g, weights))
}

// itsDraw adapts ITS.Sample on vertex 0's k-prefix to checkDistribution.
func itsDraw(s *ITS, k int, r *xrand.Rand) func() (int, bool) {
	return func() (int, bool) {
		idx, _, ok := s.Sample(0, k, r)
		return idx, ok
	}
}

func TestPrefixSumBasics(t *testing.T) {
	s := vertexITS(t, []float64{5, 6, 7})
	want := []float64{0, 5, 11, 18}
	if got := s.cum[s.off[0]:s.off[1]]; !reflect.DeepEqual(got, want) {
		t.Fatalf("prefix sums %v, want %v", got, want)
	}
}

// The paper's Figure 3b: weights {5,6,7}, r=12 selects the third edge.
// Reproduce the deterministic pick by checking boundaries directly.
func TestITSSelectsByCumulative(t *testing.T) {
	r := xrand.New(1)
	checkDistribution(t, "its", []float64{5, 6, 7}, 60000, itsDraw(vertexITS(t, []float64{5, 6, 7}), 3, r))
}

func TestITSPrefixRestriction(t *testing.T) {
	// Sampling the 2-element prefix must never return index 2.
	s := vertexITS(t, []float64{5, 6, 7})
	r := xrand.New(2)
	checkDistribution(t, "its-prefix", []float64{5, 6}, 40000, itsDraw(s, 2, r))
	// A k above the degree draws from every edge.
	checkDistribution(t, "its-clamp", []float64{5, 6, 7}, 40000, itsDraw(s, 9, r))
}

func TestITSZeroPrefix(t *testing.T) {
	s := vertexITS(t, []float64{5, 6, 7})
	r := xrand.New(3)
	if _, _, ok := s.Sample(0, 0, r); ok {
		t.Fatal("Sample(k=0) reported ok")
	}
	if _, _, ok := s.Sample(1, 1, r); ok {
		t.Fatal("degree-0 vertex reported ok")
	}
}

func TestITSZeroWeights(t *testing.T) {
	r := xrand.New(4)
	if _, _, ok := vertexITS(t, []float64{0, 0}).Sample(0, 2, r); ok {
		t.Fatal("all-zero prefix reported ok")
	}
}

func TestITSSkipsZeroWeight(t *testing.T) {
	r := xrand.New(5)
	checkDistribution(t, "its-zero", []float64{0, 3, 0, 5}, 40000, itsDraw(vertexITS(t, []float64{0, 3, 0, 5}), 4, r))
}

func TestLinearITSMatchesITS(t *testing.T) {
	w := []float64{2, 0, 7, 1}
	r := xrand.New(6)
	checkDistribution(t, "linear-its", w, 40000, func() (int, bool) {
		return LinearITS(w, 10, r)
	})
}

func TestLinearITSDegenerate(t *testing.T) {
	r := xrand.New(7)
	if _, ok := LinearITS(nil, 0, r); ok {
		t.Fatal("empty LinearITS ok")
	}
	if _, ok := LinearITS([]float64{0}, 0, r); ok {
		t.Fatal("zero-total LinearITS ok")
	}
}

func TestAliasDistribution(t *testing.T) {
	w := []float64{7, 6, 5, 4, 3, 2, 1}
	at := NewAliasTable(w)
	if at.Len() != len(w) {
		t.Fatalf("Len = %d", at.Len())
	}
	r := xrand.New(8)
	checkDistribution(t, "alias", w, 70000, func() (int, bool) { return at.Sample(r) })
}

func TestAliasSingleElement(t *testing.T) {
	at := NewAliasTable([]float64{3.5})
	r := xrand.New(9)
	for i := 0; i < 100; i++ {
		idx, ok := at.Sample(r)
		if !ok || idx != 0 {
			t.Fatalf("single-element alias returned (%d, %v)", idx, ok)
		}
	}
}

func TestAliasEmptyAndZero(t *testing.T) {
	r := xrand.New(10)
	if _, ok := NewAliasTable(nil).Sample(r); ok {
		t.Fatal("empty alias table ok")
	}
	if _, ok := NewAliasTable([]float64{0, 0}).Sample(r); ok {
		t.Fatal("zero alias table ok")
	}
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	at := NewAliasTable([]float64{0, 1, 0, 1})
	r := xrand.New(11)
	for i := 0; i < 20000; i++ {
		idx, ok := at.Sample(r)
		if !ok {
			t.Fatal("sample failed")
		}
		if idx == 0 || idx == 2 {
			t.Fatalf("zero-weight slot %d sampled", idx)
		}
	}
}

func TestAliasSkewedDistribution(t *testing.T) {
	// Exponential-style skew, the regime that breaks rejection sampling.
	w := make([]float64, 12)
	for i := range w {
		w[i] = math.Exp(float64(i) - 11)
	}
	at := NewAliasTable(w)
	r := xrand.New(12)
	checkDistribution(t, "alias-skew", w, 120000, func() (int, bool) { return at.Sample(r) })
}

func TestFillAliasDegenerate(t *testing.T) {
	prob := make([]float64, 2)
	alias := make([]int32, 2)
	FillAlias([]float64{0, 0}, prob, alias, nil)
	r := xrand.New(14)
	if _, ok := SampleAliasSlots(prob, alias, r); ok {
		t.Fatal("degenerate packed alias ok")
	}
}

func TestFillAliasPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on storage mismatch")
		}
	}()
	FillAlias([]float64{1, 2}, make([]float64, 1), make([]int32, 2), nil)
}

// Property: alias table acceptance mass equals input distribution, tested by
// construction invariants (every slot threshold in [0,1] or -1).
func TestAliasConstructionInvariant(t *testing.T) {
	f := func(raw []uint8) bool {
		w := make([]float64, len(raw))
		for i, v := range raw {
			w[i] = float64(v)
		}
		at := NewAliasTable(w)
		for i, p := range at.prob {
			if p == -1 {
				continue
			}
			if p < 0 || p > 1+1e-9 {
				return false
			}
			if int(at.alias[i]) < 0 || int(at.alias[i]) >= len(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightSpecUniform(t *testing.T) {
	g := temporal.CommuteGraph()
	w, err := WeightSpec{Kind: WeightUniform}.VertexWeights(g, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range w {
		if v != 1 {
			t.Fatalf("uniform weight %v", v)
		}
	}
}

func TestWeightSpecLinearTime(t *testing.T) {
	g := temporal.CommuteGraph()
	w, err := WeightSpec{Kind: WeightLinearTime}.VertexWeights(g, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 7 out-times newest-first 7..1, graph min time 0 → weights 8..2.
	want := []float64{8, 7, 6, 5, 4, 3, 2}
	for i, v := range want {
		if w[i] != v {
			t.Fatalf("linear-time weights = %v, want %v", w, want)
		}
	}
}

func TestWeightSpecLinearRank(t *testing.T) {
	g := temporal.CommuteGraph()
	w, err := WeightSpec{Kind: WeightLinearRank}.VertexWeights(g, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{7, 6, 5, 4, 3, 2, 1} // Figure 5's temporal weights
	for i, v := range want {
		if w[i] != v {
			t.Fatalf("linear-rank weights = %v, want %v", w, want)
		}
	}
}

func TestWeightSpecExponentialNormalized(t *testing.T) {
	g := temporal.CommuteGraph()
	w, err := Exponential(1).VertexWeights(g, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 1 {
		t.Fatalf("newest edge weight = %v, want 1 (shifted)", w[0])
	}
	for i := 1; i < len(w); i++ {
		if !(w[i] < w[i-1]) {
			t.Fatalf("exp weights not decreasing: %v", w)
		}
		ratio := w[i] / w[i-1]
		if math.Abs(ratio-math.Exp(-1)) > 1e-12 {
			t.Fatalf("consecutive ratio %v, want e^-1", ratio)
		}
	}
}

func TestWeightSpecExponentialLambda(t *testing.T) {
	g := temporal.CommuteGraph()
	w, err := Exponential(0.5).VertexWeights(g, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := w[1] / w[0]
	if math.Abs(ratio-math.Exp(-0.5)) > 1e-12 {
		t.Fatalf("lambda=0.5 ratio %v", ratio)
	}
}

func TestWeightSpecCustom(t *testing.T) {
	g := temporal.CommuteGraph()
	spec := WeightSpec{Custom: func(t temporal.Time) float64 { return float64(t) + 100 }}
	w, err := spec.VertexWeights(g, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 107 || w[6] != 101 {
		t.Fatalf("custom weights = %v", w)
	}
}

func TestWeightSpecCustomRejectsBadWeights(t *testing.T) {
	g := temporal.CommuteGraph()
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		spec := WeightSpec{Custom: func(temporal.Time) float64 { return bad }}
		if _, err := spec.VertexWeights(g, 7, nil); err == nil {
			t.Fatalf("weight %v accepted", bad)
		}
	}
}

func TestWeightSpecMonotone(t *testing.T) {
	g := temporal.CommuteGraph()
	for _, k := range []WeightKind{WeightUniform, WeightLinearTime, WeightLinearRank, WeightExponential} {
		w, err := WeightSpec{Kind: k}.VertexWeights(g, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(w); i++ {
			if w[i] > w[i-1] {
				t.Fatalf("%v weights increase along newest-first list: %v", k, w)
			}
		}
	}
}

func TestWeightKindString(t *testing.T) {
	names := map[WeightKind]string{
		WeightUniform:     "uniform",
		WeightLinearTime:  "linear-time",
		WeightLinearRank:  "linear-rank",
		WeightExponential: "exponential",
		WeightKind(99):    "WeightKind(99)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
}

// Property: ITS and alias sampling agree on totals — both must report ok on
// any positive-total weight vector and fail on zero totals.
func TestSamplerAgreementProperty(t *testing.T) {
	r := xrand.New(20)
	f := func(raw []uint8) bool {
		w := make([]float64, len(raw))
		total := 0.0
		for i, v := range raw {
			w[i] = float64(v)
			total += w[i]
		}
		_, _, okITS := vertexITS(t, w).Sample(0, len(w), r)
		_, okAlias := NewAliasTable(w).Sample(r)
		return okITS == (total > 0) && okAlias == (total > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkITS(b *testing.B) {
	w := make([]float64, 1024)
	for i := range w {
		w[i] = float64(i + 1)
	}
	s := vertexITS(b, w)
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(0, len(w), r)
	}
}

func BenchmarkAlias(b *testing.B) {
	w := make([]float64, 1024)
	for i := range w {
		w[i] = float64(i + 1)
	}
	at := NewAliasTable(w)
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at.Sample(r)
	}
}
