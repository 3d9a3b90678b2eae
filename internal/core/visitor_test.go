package core

import (
	"sync"
	"testing"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/xrand"
)

// The Visitor callback must observe exactly the steps the paths record.
func TestVisitorSeesEveryStep(t *testing.T) {
	g := testutil.RandomGraph(t, 120, 3000, 500, 37)
	eng, err := NewEngine(g, LinearTime(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	type hop struct {
		from, to temporal.Vertex
		at       temporal.Time
	}
	var mu sync.Mutex
	seen := map[int][]hop{}
	res, err := eng.Run(WalkConfig{
		Length:    12,
		Seed:      4,
		KeepPaths: true,
		Visitor: func(walkID, step int, from, to temporal.Vertex, at temporal.Time) {
			mu.Lock()
			defer mu.Unlock()
			if step != len(seen[walkID]) {
				t.Errorf("walk %d: step %d out of order", walkID, step)
			}
			seen[walkID] = append(seen[walkID], hop{from, to, at})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	totalHops := 0
	for wi, p := range res.Paths {
		hops := seen[wi]
		if len(hops) != len(p.Times) {
			t.Fatalf("walk %d: visitor saw %d hops, path has %d", wi, len(hops), len(p.Times))
		}
		for i, h := range hops {
			if h.from != p.Vertices[i] || h.to != p.Vertices[i+1] || h.at != p.Times[i] {
				t.Fatalf("walk %d hop %d mismatch: %+v vs path", wi, i, h)
			}
		}
		totalHops += len(hops)
	}
	if int64(totalHops) != res.Cost.Steps {
		t.Fatalf("visitor hops %d vs steps %d", totalHops, res.Cost.Steps)
	}
}

// Exact second-hop distribution of temporal node2vec: P(v) ∝ δ(v)·β(v),
// verified against the engine's measured frequencies.
func TestNode2VecExactDistribution(t *testing.T) {
	// From hub 0 the walker goes to 1 (only edge). At 1 the candidates with
	// their times: back to 0 (t=2), to 2 (t=3, a neighbor of 0), to 3 (t=4,
	// distant). Exponential weights with λ=0.5 give δ = e^{0.5(t-4)}.
	edges := []temporal.Edge{
		{Src: 0, Dst: 1, Time: 1},
		{Src: 0, Dst: 2, Time: 1}, // makes 2 a neighbor of 0; equal time keeps the first hop 50/50
		{Src: 1, Dst: 0, Time: 2},
		{Src: 1, Dst: 2, Time: 3},
		{Src: 1, Dst: 3, Time: 4},
	}
	g := temporal.MustFromEdges(edges)
	p, q := 0.5, 2.0
	app := TemporalNode2Vec(p, q, 0.5)
	eng, err := NewEngine(g, app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(WalkConfig{
		WalksPerVertex: 60000, Length: 2,
		StartVertices: []temporal.Vertex{0}, KeepPaths: true, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[temporal.Vertex]float64{}
	total := 0.0
	for _, path := range res.Paths {
		if len(path.Vertices) == 3 {
			counts[path.Vertices[2]]++
			total++
		}
	}
	// δ: e^{-1} (t=2), e^{-0.5} (t=3), 1 (t=4); β: 1/p=2 (return to 0),
	// 1 (neighbor 2), 1/q=0.5 (distant 3).
	w0 := 2.0 * expNeg(1)
	w2 := 1.0 * expNeg(0.5)
	w3 := 0.5 * 1.0
	sum := w0 + w2 + w3
	for v, w := range map[temporal.Vertex]float64{0: w0, 2: w2, 3: w3} {
		want := w / sum
		got := counts[v] / total
		if diff := got - want; diff > 0.01 || diff < -0.01 {
			t.Fatalf("second hop %d frequency %.4f, want %.4f", v, got, want)
		}
	}
}

func expNeg(x float64) float64 {
	// Tiny helper keeping the expectation arithmetic readable.
	e := 1.0
	const terms = 30
	pow, fact := 1.0, 1.0
	for i := 1; i <= terms; i++ {
		pow *= -x
		fact *= float64(i)
		e += pow / fact
	}
	return e
}

// CustomWeightSpec with per-application spec must flow through the engine.
func TestCustomWeightDistribution(t *testing.T) {
	g := testutil.SkewedGraph(t, 8, 70) // hub edges at times 1..70
	app := App{
		Name: "squared-time",
		Weight: sampling.WeightSpec{Custom: func(t temporal.Time) float64 {
			return float64(t*t) + 1
		}},
	}
	eng, err := NewEngine(g, app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 70)
	for i := range want {
		tm := float64(70 - i)
		want[i] = tm*tm + 1
	}
	r := xrand.New(9)
	testutil.CheckDistribution(t, "custom", want, 40000, func() (int, bool) {
		e, _, ok := eng.Sampler().Sample(0, 70, r)
		return e, ok
	})
}
