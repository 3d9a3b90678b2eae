package stream

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/xrand"
)

func mustNew(t testing.TB, cfg Config) *Graph {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewRejectsCustomWeight(t *testing.T) {
	_, err := New(Config{Weight: sampling.WeightSpec{Custom: func(temporal.Time) float64 { return 1 }}})
	if !errors.Is(err, ErrCustomWeight) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppendBatchBasics(t *testing.T) {
	g := mustNew(t, Config{Weight: sampling.WeightSpec{Kind: sampling.WeightUniform}})
	if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}, {Src: 0, Dst: 2, Time: 2}}); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 || g.Degree(0) != 2 {
		t.Fatalf("V=%d E=%d deg0=%d", g.NumVertices(), g.NumEdges(), g.Degree(0))
	}
	if g.Frontier() != 2 {
		t.Fatalf("frontier %d", g.Frontier())
	}
	if g.Degree(99) != 0 || g.Segments(99) != 0 {
		t.Fatal("unseen vertex should be degree 0")
	}
}

func TestStaleBatchRejected(t *testing.T) {
	g := mustNew(t, Config{})
	if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 5}}); err != nil {
		t.Fatal(err)
	}
	err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 2, Time: 5}})
	if !errors.Is(err, ErrStaleBatch) {
		t.Fatalf("err = %v", err)
	}
	err = g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 2, Time: 3}})
	if !errors.Is(err, ErrStaleBatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyBatchNoOp(t *testing.T) {
	g := mustNew(t, Config{})
	if err := g.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Fatal("empty batch changed state")
	}
}

func TestCandidateCountAcrossSegments(t *testing.T) {
	g := mustNew(t, Config{Weight: sampling.WeightSpec{Kind: sampling.WeightUniform}})
	// Three separate batches to force multiple segments before merging.
	for _, b := range [][]temporal.Edge{
		{{Src: 0, Dst: 1, Time: 1}, {Src: 0, Dst: 2, Time: 2}, {Src: 0, Dst: 3, Time: 3}, {Src: 0, Dst: 4, Time: 4}},
		{{Src: 0, Dst: 5, Time: 5}, {Src: 0, Dst: 6, Time: 6}},
		{{Src: 0, Dst: 7, Time: 7}},
	} {
		if err := g.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	for after, want := range map[temporal.Time]int{0: 7, 1: 6, 3: 4, 4: 3, 5: 2, 6: 1, 7: 0, 100: 0} {
		if got := g.CandidateCount(0, after); got != want {
			t.Errorf("CandidateCount(0,%d) = %d, want %d", after, got, want)
		}
	}
}

func TestLSMMergePolicy(t *testing.T) {
	g := mustNew(t, Config{})
	// Equal-size batches must keep merging into one segment.
	for i := 0; i < 8; i++ {
		if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: temporal.Time(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	// After 8 singleton appends the LSM invariant keeps ≤ log2(8)+1 segments.
	if s := g.Segments(0); s > 4 {
		t.Fatalf("segments = %d after 8 singleton batches", s)
	}
	if g.Degree(0) != 8 {
		t.Fatalf("degree = %d", g.Degree(0))
	}
}

// Streaming sampling must match the static engine's distribution: build the
// same edges both ways and compare transition frequencies.
func TestStreamMatchesStaticDistribution(t *testing.T) {
	specs := []sampling.WeightSpec{
		{Kind: sampling.WeightUniform},
		{Kind: sampling.WeightLinearTime},
		{Kind: sampling.WeightLinearRank},
		sampling.Exponential(0.3),
	}
	edges := temporal.CommuteEdges()
	for _, spec := range specs {
		sg := mustNew(t, Config{Weight: spec, NumVertices: 10})
		// Stream the commute edges in time order, one batch per timestamp.
		for tm := temporal.Time(0); tm <= 7; tm++ {
			var batch []temporal.Edge
			for _, e := range edges {
				if e.Time == tm {
					batch = append(batch, e)
				}
			}
			if err := sg.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		static := temporal.CommuteGraph()
		w := testutil.Weights(t, static, spec)
		r := xrand.New(7)
		// Arrival at 7 from 8 (t=0): all 7 out-edges are candidates.
		want := append([]float64(nil), w.Vertex(7)...)
		counts := make([]float64, 8)
		const draws = 60000
		for i := 0; i < draws; i++ {
			dst, _, _, ok := sg.SampleStep(7, 0, r)
			if !ok {
				t.Fatalf("%v: stream sample failed", spec.Kind)
			}
			counts[dst]++
		}
		// Static weights are indexed newest-first: edge i goes to vertex 6-i.
		for i, wv := range want {
			expect := draws * wv / sum(want)
			got := counts[6-i]
			if math.Abs(got-expect) > 5*math.Sqrt(expect)+25 {
				t.Fatalf("%v: dst %d count %.0f, expect %.0f", spec.Kind, 6-i, got, expect)
			}
		}
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestExponentialCrossSegmentScaling(t *testing.T) {
	// Two segments with very different time ranges: the newer segment must
	// dominate exponentially, which only works if cross-segment scaling is
	// applied.
	g := mustNew(t, Config{Weight: sampling.Exponential(1)})
	if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}, {Src: 0, Dst: 2, Time: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 3, Time: 10}}); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(8)
	newer := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		dst, _, _, ok := g.SampleStep(0, temporal.MinTime, r)
		if !ok {
			t.Fatal("sample failed")
		}
		if dst == 3 {
			newer++
		}
	}
	// exp(0)/(exp(0)+exp(-8)+exp(-9)) ≈ 0.9995.
	if float64(newer)/draws < 0.995 {
		t.Fatalf("newest edge sampled only %d/%d times", newer, draws)
	}
}

func TestWalkRespectsTemporalOrder(t *testing.T) {
	g := mustNew(t, Config{Weight: sampling.WeightSpec{Kind: sampling.WeightUniform}})
	r := xrand.New(9)
	// Random-ish DAG stream.
	for i := 0; i < 50; i++ {
		e := temporal.Edge{
			Src:  temporal.Vertex(r.IntN(20)),
			Dst:  temporal.Vertex(r.IntN(20)),
			Time: temporal.Time(i + 1),
		}
		if err := g.AppendBatch([]temporal.Edge{e}); err != nil {
			t.Fatal(err)
		}
	}
	for src := temporal.Vertex(0); src < 20; src++ {
		verts, times := g.Walk(src, temporal.MinTime, 30, r)
		if len(verts) != len(times)+1 {
			t.Fatalf("walk shape %d/%d", len(verts), len(times))
		}
		for i := 1; i < len(times); i++ {
			if times[i] <= times[i-1] {
				t.Fatalf("non-increasing walk times %v", times)
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := mustNew(t, Config{NumVertices: 10})
	// Stream commute edges in time order.
	edges := temporal.CommuteEdges()
	for tm := temporal.Time(0); tm <= 7; tm++ {
		var batch []temporal.Edge
		for _, e := range edges {
			if e.Time == tm {
				batch = append(batch, e)
			}
		}
		if err := g.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := temporal.CommuteGraph()
	if snap.NumEdges() != want.NumEdges() || snap.NumVertices() != want.NumVertices() {
		t.Fatalf("snapshot shape V=%d E=%d", snap.NumVertices(), snap.NumEdges())
	}
	for u := temporal.Vertex(0); u < 10; u++ {
		if snap.Degree(u) != want.Degree(u) {
			t.Fatalf("degree mismatch at %d", u)
		}
	}
}

func TestRebuildVertexPreservesDistribution(t *testing.T) {
	g := mustNew(t, Config{Weight: sampling.Exponential(0.5)})
	for i := 0; i < 20; i++ {
		if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: temporal.Vertex(i + 1), Time: temporal.Time(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	r := xrand.New(10)
	before := map[temporal.Vertex]int{}
	for i := 0; i < 30000; i++ {
		dst, _, _, ok := g.SampleStep(0, temporal.MinTime, r)
		if !ok {
			t.Fatal("sample failed")
		}
		before[dst]++
	}
	g.RebuildVertex(0)
	if g.Segments(0) != 1 {
		t.Fatalf("segments after rebuild = %d", g.Segments(0))
	}
	after := map[temporal.Vertex]int{}
	for i := 0; i < 30000; i++ {
		dst, _, _, ok := g.SampleStep(0, temporal.MinTime, r)
		if !ok {
			t.Fatal("sample failed")
		}
		after[dst]++
	}
	// Dominant destination (newest edge, vertex 20) must agree within noise.
	b, a := float64(before[20]), float64(after[20])
	if math.Abs(b-a) > 5*math.Sqrt(b)+50 {
		t.Fatalf("rebuild changed distribution: %v vs %v", before[20], after[20])
	}
}

func TestDeadEndSampling(t *testing.T) {
	g := mustNew(t, Config{})
	if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(11)
	if _, _, _, ok := g.SampleStep(0, 1, r); ok {
		t.Fatal("sampled past the frontier")
	}
	if _, _, _, ok := g.SampleStep(1, temporal.MinTime, r); ok {
		t.Fatal("sampled from a sink vertex")
	}
	if _, _, _, ok := g.SampleStep(42, 0, r); ok {
		t.Fatal("sampled from an unseen vertex")
	}
}

// Linear-time weights are anchored at the first batch's earliest time, and
// later batches do not move the anchor.
func TestPinnedMinTime(t *testing.T) {
	g := mustNew(t, Config{Weight: sampling.WeightSpec{Kind: sampling.WeightLinearTime}})
	if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 10}, {Src: 0, Dst: 2, Time: 20}}); err != nil {
		t.Fatal(err)
	}
	if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 3, Time: 30}}); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(12)
	// Weights 1, 11 and 21 relative to the anchor at time 10.
	var hits [4]int
	const draws = 40000
	for i := 0; i < draws; i++ {
		dst, _, _, ok := g.SampleStep(0, temporal.MinTime, r)
		if !ok {
			t.Fatal("sample failed")
		}
		hits[dst]++
	}
	for dst, w := range []float64{1: 1, 2: 11, 3: 21} {
		if dst == 0 {
			continue
		}
		if got := float64(hits[dst]) / draws; math.Abs(got-w/33) > 0.02 {
			t.Fatalf("dst %d: linear-time share %.3f, want %.3f", dst, got, w/33)
		}
	}
}

func TestMemoryBytesGrows(t *testing.T) {
	g := mustNew(t, Config{})
	if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	m1 := g.MemoryBytes()
	for i := 2; i <= 100; i++ {
		if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: temporal.Time(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if g.MemoryBytes() <= m1 {
		t.Fatal("memory did not grow with edges")
	}
}

func BenchmarkAppendBatch100(b *testing.B) {
	benchAppend(b, 100)
}

func BenchmarkAppendBatch10000(b *testing.B) {
	benchAppend(b, 10000)
}

func benchAppend(b *testing.B, batch int) {
	g, err := New(Config{Weight: sampling.Exponential(0.001)})
	if err != nil {
		b.Fatal(err)
	}
	next := temporal.Time(1)
	edges := make([]temporal.Edge, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range edges {
			edges[j] = temporal.Edge{Src: 0, Dst: temporal.Vertex(j % 100), Time: next}
			next++
		}
		if err := g.AppendBatch(edges); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: any valid append sequence round-trips through Snapshot with the
// same degrees and candidate counts (deletions excluded here; covered in
// delete_test.go).
func TestStreamSnapshotProperty(t *testing.T) {
	f := func(raw []uint16, seed uint64) bool {
		g, err := New(Config{Weight: sampling.Exponential(0.01)})
		if err != nil {
			return false
		}
		r := xrand.New(seed)
		next := temporal.Time(1)
		var all []temporal.Edge
		for _, v := range raw {
			n := int(v%5) + 1
			batch := make([]temporal.Edge, n)
			for i := range batch {
				batch[i] = temporal.Edge{
					Src:  temporal.Vertex(r.IntN(16)),
					Dst:  temporal.Vertex(r.IntN(16)),
					Time: next,
				}
				next++
			}
			if err := g.AppendBatch(batch); err != nil {
				return false
			}
			all = append(all, batch...)
		}
		if len(all) == 0 {
			return g.NumEdges() == 0
		}
		snap, err := g.Snapshot()
		if err != nil {
			return false
		}
		want, err := temporal.FromEdges(all, temporal.WithNumVertices(g.NumVertices()))
		if err != nil {
			return false
		}
		if snap.NumEdges() != want.NumEdges() {
			return false
		}
		for u := 0; u < want.NumVertices(); u++ {
			if snap.Degree(temporal.Vertex(u)) != want.Degree(temporal.Vertex(u)) {
				return false
			}
			if g.Degree(temporal.Vertex(u)) != want.Degree(temporal.Vertex(u)) {
				return false
			}
			for _, at := range []temporal.Time{0, next / 2, next} {
				if g.CandidateCount(temporal.Vertex(u), at) != want.CandidateCount(temporal.Vertex(u), at) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
