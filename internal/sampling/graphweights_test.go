package sampling

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

func randomTestGraph(t *testing.T, v, e int, seed int64) *temporal.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	edges := make([]temporal.Edge, e)
	for i := range edges {
		edges[i] = temporal.Edge{
			Src:  temporal.Vertex(r.Intn(v)),
			Dst:  temporal.Vertex(r.Intn(v)),
			Time: temporal.Time(r.Intn(10000)),
		}
	}
	g, err := temporal.FromEdges(edges, temporal.WithNumVertices(v))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildGraphWeightsParallelMatchesSerial(t *testing.T) {
	g := randomTestGraph(t, 200, 8000, 3)
	for _, spec := range []WeightSpec{
		{Kind: WeightUniform}, {Kind: WeightLinearTime}, {Kind: WeightLinearRank}, Exponential(0.001),
	} {
		a, err := BuildGraphWeights(g, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildGraphWeights(g, spec, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Flat, b.Flat) {
			t.Fatalf("%v: parallel weights differ from serial", spec.Kind)
		}
	}
}

func TestBuildGraphWeightsVertexViews(t *testing.T) {
	g := temporal.CommuteGraph()
	w, err := BuildGraphWeights(g, WeightSpec{Kind: WeightLinearRank}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Graph() != g {
		t.Fatal("Graph accessor")
	}
	if len(w.Flat) != g.NumEdges() {
		t.Fatalf("flat len %d", len(w.Flat))
	}
	v7 := w.Vertex(7)
	if len(v7) != 7 || v7[0] != 7 || v7[6] != 1 {
		t.Fatalf("Vertex(7) = %v", v7)
	}
	if w.MemoryBytes() != int64(g.NumEdges())*8 {
		t.Fatalf("memory = %d", w.MemoryBytes())
	}
}

func TestBuildGraphWeightsPropagatesError(t *testing.T) {
	g := randomTestGraph(t, 50, 500, 5)
	spec := WeightSpec{Custom: func(t temporal.Time) float64 {
		if t > 5000 {
			return -1 // invalid: triggers the error path mid-build
		}
		return 1
	}}
	// Each chunk stops at its first bad edge and the lowest chunk's error
	// wins, which is the error a serial build meets first.
	_, want := BuildGraphWeights(g, spec, 1)
	if want == nil {
		t.Fatal("invalid custom weight accepted")
	}
	for _, threads := range []int{3, 4, 8} {
		if _, err := BuildGraphWeights(g, spec, threads); err == nil || err.Error() != want.Error() {
			t.Fatalf("%d threads: error %v, want %v", threads, err, want)
		}
	}
}

func TestWrapGraphWeightsRoundTrip(t *testing.T) {
	g := temporal.CommuteGraph()
	flat := make([]float64, g.NumEdges())
	for i := range flat {
		flat[i] = float64(i + 1)
	}
	w := WrapGraphWeights(g, flat)
	if &w.Flat[0] != &flat[0] {
		t.Fatal("wrap copied the slice")
	}
	if len(w.Vertex(7)) != 7 {
		t.Fatal("vertex view")
	}
}

func TestMemoryBytesAccessors(t *testing.T) {
	w := []float64{1, 2, 3}
	if NewAliasTable(w).MemoryBytes() != 3*8+3*4 {
		t.Fatal("alias memory")
	}
	// Two vertices: 3+1 and 0+1 prefix sums, 3 offsets.
	if vertexITS(t, w).MemoryBytes() != 5*8+3*8 {
		t.Fatal("ITS memory")
	}
}

// A weight vector whose tail is zero: the prefix sums end in a run equal to
// the total, so neither ITS may return a zero-weight edge there, and
// LinearITS's floating-point fallback must land on the last positive
// weight.
func TestITSFloatEdgeFallbacks(t *testing.T) {
	s := vertexITS(t, []float64{1, 0, 0})
	r := xrand.New(31)
	for i := 0; i < 20000; i++ {
		idx, _, ok := s.Sample(0, 3, r)
		if !ok || idx != 0 {
			t.Fatalf("draw %d: (%d,%v)", i, idx, ok)
		}
	}
	for i := 0; i < 20000; i++ {
		idx, ok := LinearITS([]float64{1, 0, 0}, 1, r)
		if !ok || idx != 0 {
			t.Fatalf("linear draw %d: (%d,%v)", i, idx, ok)
		}
	}
}
