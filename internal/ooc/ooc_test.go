package ooc

import (
	"context"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/xrand"
)

func tempStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewTempStore()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestStoreReadWriteAccounting(t *testing.T) {
	s := tempStore(t)
	data := []byte("hello, block store")
	off, err := s.Append(data)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := s.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("read back %q", got)
	}
	br, ro, bw, wo := s.Counters()
	if br != int64(len(data)) || ro != 1 || bw != int64(len(data)) || wo != 1 {
		t.Fatalf("counters %d/%d/%d/%d", br, ro, bw, wo)
	}
	s.ResetCounters()
	br, ro, bw, wo = s.Counters()
	if br+ro+bw+wo != 0 {
		t.Fatal("reset failed")
	}
}

func TestStoreReadBeyondEOF(t *testing.T) {
	s := tempStore(t)
	if err := s.ReadAt(make([]byte, 8), 1<<20); err == nil {
		t.Fatal("EOF read succeeded")
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{PerOp: time.Millisecond, BytesPerSecond: 1e6}
	got := m.ReadTime(1e6, 10)
	want := time.Second + 10*time.Millisecond
	if got != want {
		t.Fatalf("ReadTime = %v, want %v", got, want)
	}
	zero := CostModel{PerOp: time.Millisecond}
	if zero.ReadTime(100, 3) != 3*time.Millisecond {
		t.Fatal("zero-bandwidth model wrong")
	}
}

func TestDiskPATDistribution(t *testing.T) {
	g := temporal.CommuteGraph()
	w := testutil.Weights(t, g, sampling.WeightSpec{Kind: sampling.WeightLinearRank})
	s := tempStore(t)
	d, err := BuildDiskPAT(w, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "TEA-OOC" {
		t.Fatal("name")
	}
	r := xrand.New(1)
	for k := 1; k <= 7; k++ {
		want := make([]float64, k)
		for i := range want {
			want[i] = float64(7 - i)
		}
		testutil.CheckDistribution(t, "diskpat", want, 15000, func() (int, bool) {
			e, _, ok := d.Sample(7, k, r)
			return e, ok
		})
	}
}

func TestDiskPATDegenerate(t *testing.T) {
	g := temporal.CommuteGraph()
	w := testutil.Weights(t, g, sampling.WeightSpec{})
	s := tempStore(t)
	d, err := BuildDiskPAT(w, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(2)
	if _, _, ok := d.Sample(7, 0, r); ok {
		t.Fatal("k=0")
	}
	if _, _, ok := d.Sample(1, 1, r); ok {
		t.Fatal("degree 0")
	}
	if e, _, ok := d.Sample(7, 99, r); !ok || e < 0 || e >= 7 {
		t.Fatal("clamp")
	}
}

func TestDiskPATMemoryTiny(t *testing.T) {
	g := testutil.SkewedGraph(t, 64, 8192)
	w := testutil.Weights(t, g, sampling.Exponential(0.001))
	s := tempStore(t)
	d, err := BuildDiskPAT(w, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Resident: ~deg/10 floats for the hub ≈ 820*8 bytes plus offsets.
	if d.MemoryBytes() > int64(g.NumEdges())*8 {
		t.Fatalf("OOC PAT memory %d not sublinear in edge bytes", d.MemoryBytes())
	}
}

func TestDiskGraphWalkerDistribution(t *testing.T) {
	g := temporal.CommuteGraph()
	s := tempStore(t)
	d, err := BuildDiskGraphWalker(g, sampling.Exponential(0.5), s)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "GraphWalker-OOC" {
		t.Fatal("name")
	}
	w := testutil.Weights(t, g, sampling.Exponential(0.5))
	r := xrand.New(3)
	for _, k := range []int{1, 4, 7} {
		want := append([]float64(nil), w.Vertex(7)[:k]...)
		testutil.CheckDistribution(t, "diskgw", want, 15000, func() (int, bool) {
			e, _, ok := d.Sample(7, k, r)
			return e, ok
		})
	}
	if _, _, ok := d.Sample(7, 0, r); ok {
		t.Fatal("k=0")
	}
	if d.MemoryBytes() <= 0 {
		t.Fatal("memory")
	}
}

func TestDiskGraphWalkerRejectsCustom(t *testing.T) {
	g := temporal.CommuteGraph()
	s := tempStore(t)
	spec := sampling.WeightSpec{Custom: func(temporal.Time) float64 { return 1 }}
	if _, err := BuildDiskGraphWalker(g, spec, s); err == nil {
		t.Fatal("custom weight accepted")
	}
}

// The Figure 14b effect: per-step I/O volume of TEA-OOC is O(trunkSize)
// while the full-load baseline reads O(D) — a hub-heavy graph must show a
// large gap.
func TestIOSeparation(t *testing.T) {
	g := testutil.SkewedGraph(t, 32, 4096)
	g.PrecomputeCandidates(1)
	spec := sampling.Exponential(0.002)
	w := testutil.Weights(t, g, spec)

	sTea := tempStore(t)
	tea, err := BuildDiskPAT(w, sTea, 10)
	if err != nil {
		t.Fatal(err)
	}
	sGw := tempStore(t)
	gw, err := BuildDiskGraphWalker(g, spec, sGw)
	if err != nil {
		t.Fatal(err)
	}
	sTea.ResetCounters()
	sGw.ResetCounters()

	r := xrand.New(4)
	deg := g.Degree(0)
	const draws = 500
	for i := 0; i < draws; i++ {
		k := 1 + r.IntN(deg)
		if _, _, ok := tea.Sample(0, k, r); !ok {
			t.Fatal("tea draw failed")
		}
		if _, _, ok := gw.Sample(0, k, r); !ok {
			t.Fatal("gw draw failed")
		}
	}
	teaBytes, _, _, _ := sTea.Counters()
	gwBytes, _, _, _ := sGw.Counters()
	if gwBytes < 20*teaBytes {
		t.Fatalf("I/O separation too small: TEA %d bytes vs GraphWalker %d bytes", teaBytes, gwBytes)
	}
}

func TestEngineRunAndFlush(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 1000, 5)
	g.PrecomputeCandidates(1)
	w := testutil.Weights(t, g, sampling.Exponential(0.01))
	s := tempStore(t)
	d, err := BuildDiskPAT(w, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	out := tempStore(t)
	eng := NewEngine(g, d, out)
	res, err := eng.Run(5, 10, 7) // 1500 walks → at least one full flush
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.WalksStarted != int64(5*g.NumVertices()) {
		t.Fatalf("WalksStarted = %d", res.Cost.WalksStarted)
	}
	if res.Flushes < 1 {
		t.Fatal("no flushes despite >1024 walks")
	}
	_, _, bw, wo := out.Counters()
	if bw == 0 || wo == 0 {
		t.Fatal("no walk output written")
	}
	if res.Cost.Steps == 0 || res.Cost.EdgesEvaluated == 0 {
		t.Fatal("no cost recorded")
	}
}

func TestEngineNilOutput(t *testing.T) {
	g := temporal.CommuteGraph()
	g.PrecomputeCandidates(1)
	w := testutil.Weights(t, g, sampling.WeightSpec{})
	s := tempStore(t)
	d, err := BuildDiskPAT(w, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(g, d, nil)
	res, err := eng.Run(1, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flushes != 0 {
		t.Fatal("flushed with nil output")
	}
}

func TestOpenKeepsFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/store.dat"
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("persist")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := make([]byte, 7)
	if err := s2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist" {
		t.Fatalf("read back %q", got)
	}
	if s2.Path() != path {
		t.Fatal("path accessor")
	}
}

func BenchmarkDiskPATSample(b *testing.B) {
	g := testutil.SkewedGraph(b, 64, 4096)
	w, err := sampling.BuildGraphWeights(g, sampling.Exponential(0.002), 0)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewTempStore()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	d, err := BuildDiskPAT(w, s, 10)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	deg := g.Degree(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(0, 1+r.IntN(deg), r)
	}
}

// Failure injection: a sampler whose store disappears must fail draws
// gracefully (ok=false), never panic.
func TestDiskPATSurvivesStoreFailure(t *testing.T) {
	g := temporal.CommuteGraph()
	w := testutil.Weights(t, g, sampling.WeightSpec{Kind: sampling.WeightLinearRank})
	s, err := NewTempStore()
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildDiskPAT(w, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	for i := 0; i < 100; i++ {
		if _, _, ok := d.Sample(7, 7, r); ok {
			t.Fatal("draw succeeded against a closed store")
		}
	}
}

func TestDiskGraphWalkerSurvivesStoreFailure(t *testing.T) {
	g := temporal.CommuteGraph()
	s, err := NewTempStore()
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildDiskGraphWalker(g, sampling.WeightSpec{}, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(10)
	if _, _, ok := d.Sample(7, 7, r); ok {
		t.Fatal("draw succeeded against a closed store")
	}
}

// A scalar draw takes its fetch buffer and weight scratch from a pool, so a
// warm draw allocates nothing; the pooled buffer is never a memo, so every
// draw still reads its block from the store. k = 1024 is 64 whole trunks of
// 16, so each DiskPAT draw is exactly one read, as each GraphWalker draw is.
func TestDiskSamplersScalarDrawAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries")
	}
	g := testutil.SkewedGraph(t, 64, 4096)
	spec := sampling.Exponential(0.001)
	s := tempStore(t)
	pat, err := BuildDiskPAT(testutil.Weights(t, g, spec), s, 16)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := BuildDiskGraphWalker(g, spec, s)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(5)
	for _, d := range []core.BatchSampler{pat, gw} {
		const runs = 100
		d.Sample(0, 1024, r) // warm the pool
		_, before, _, _ := s.Counters()
		if a := testing.AllocsPerRun(runs, func() { d.Sample(0, 1024, r) }); a != 0 {
			t.Errorf("%s: scalar draw allocates %v times", d.Name(), a)
		}
		// AllocsPerRun makes one warm-up call before its runs.
		if _, after, _, _ := s.Counters(); after-before != runs+1 {
			t.Errorf("%s: %d draws issued %d reads", d.Name(), runs+1, after-before)
		}
		us, ks := []temporal.Vertex{0, 0, 1}, []int32{1024, 1024, 1}
		rs := []*xrand.Rand{r, r, r}
		edges, evals, oks := make([]int32, 3), make([]int64, 3), make([]bool, 3)
		if a := testing.AllocsPerRun(runs, func() { d.SampleBatch(context.Background(), us, ks, rs, edges, evals, oks) }); a != 0 {
			t.Errorf("%s: SampleBatch allocates %v times", d.Name(), a)
		}
	}
}

// The out-of-core engine must propagate output-store failures instead of
// silently dropping walks.
func TestEngineFlushFailure(t *testing.T) {
	g := testutil.RandomGraph(t, 400, 8000, 900, 8)
	g.PrecomputeCandidates(1)
	w := testutil.Weights(t, g, sampling.WeightSpec{})
	s := tempStore(t)
	d, err := BuildDiskPAT(w, s, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewTempStore()
	if err != nil {
		t.Fatal(err)
	}
	_ = out.Close() // output store broken before the run
	eng := NewEngine(g, d, out)
	if _, err := eng.Run(4, 10, 1); err == nil {
		t.Fatal("flush to a closed store reported success")
	}
}

// When the candidate prefix carries a vanishing share of its trunk's weight,
// the one-read rejection protocol exhausts its proposals and must fall back
// to the exact two-read path — with the correct conditional distribution.
// Built-in temporal weights are non-increasing along the newest-first list,
// so the candidate prefix always dominates its trunk (acceptance ≥ k/trunk);
// only a custom age-increasing Dynamic_weight can starve the proposals.
func TestDiskPATRejectionFallbackDistribution(t *testing.T) {
	edges := make([]temporal.Edge, 10)
	for i := range edges {
		edges[i] = temporal.Edge{Src: 0, Dst: temporal.Vertex(i + 1), Time: temporal.Time(i + 1)}
	}
	g := temporal.MustFromEdges(edges)
	// Older edges exponentially heavier: the 3 newest candidates carry
	// ≈ e^-21 of the trunk's mass, so essentially every draw exhausts the
	// 128-proposal budget and takes the exact fallback.
	spec := sampling.WeightSpec{Custom: func(tm temporal.Time) float64 {
		w := 1.0
		for i := temporal.Time(0); i < 10-tm; i++ {
			w *= 20.0 // 20^(10-t): steep growth with age, no overflow
		}
		return w
	}}
	w := testutil.Weights(t, g, spec)
	s := tempStore(t)
	d, err := BuildDiskPAT(w, s, 10)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(21)
	// Candidates: the 3 newest edges (t=10,9,8) with weights 1, 20, 400.
	want := []float64{1, 20, 400}
	testutil.CheckDistribution(t, "ooc-fallback", want, 20000, func() (int, bool) {
		e, _, ok := d.Sample(0, 3, r)
		return e, ok
	})
}

// The proposal-cap fallback bills the work it does like the proposal loop:
// when it lands in a complete trunk, the trunk search's probes and the alias
// draw's 2 slots count. Vertex 0 has 8 edges in trunks of 2 and the
// candidate set is its 5 newest: two complete trunks of weight 4, one
// candidate of weight 1e-9 and, beside it in the partial trunk, an excluded
// edge of weight 1e12. Every proposal lands in the partial trunk (1 probe)
// and is rejected after reading its 1 candidate weight, so 128 proposals
// bill 256; the fallback reads the candidate (257) and almost surely draws a
// complete trunk: 1 probe (258) and the alias draw (260).
func TestDiskPATFallbackBillsCompleteTrunkDraw(t *testing.T) {
	edges := make([]temporal.Edge, 8)
	for i := range edges {
		edges[i] = temporal.Edge{Src: 0, Dst: temporal.Vertex(i + 1), Time: temporal.Time(i + 1)}
	}
	g := temporal.MustFromEdges(edges)
	spec := sampling.WeightSpec{Custom: func(tm temporal.Time) float64 {
		switch tm {
		case 4:
			return 1e-9
		case 3:
			return 1e12
		}
		return 1
	}}
	d, err := BuildDiskPAT(testutil.Weights(t, g, spec), tempStore(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(3)
	for i := 0; i < 200; i++ {
		e, evaluated, ok := d.Sample(0, 5, r)
		if !ok || e >= 4 {
			t.Fatalf("draw %d: edge %d ok %v, want a complete-trunk edge", i, e, ok)
		}
		if evaluated != 260 {
			t.Fatalf("draw %d: evaluated %d, want 260", i, evaluated)
		}
	}
}

// A run without an output store keeps no walks: no path is built, so the
// run's allocations do not grow with its walk count. The sampler is
// in-memory ITS, which allocates nothing per draw, so only the engine's own
// per-walk retention could move the count.
func TestNilOutputRunRetainsNoWalks(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 1000, 5)
	w := testutil.Weights(t, g, sampling.Exponential(0.01))
	eng := NewEngine(g, core.NewITSSampler(w), nil)
	allocs := func(walks int) float64 {
		starts := make([]temporal.Vertex, walks)
		for i := range starts {
			starts[i] = temporal.Vertex(i % g.NumVertices())
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := eng.RunStarts(context.Background(), starts, 10, 7); err != nil {
				t.Fatal(err)
			}
		})
	}
	const ceiling = 20
	small, large := allocs(100), allocs(3000)
	t.Logf("allocs per run: %v at 100 walks, %v at 3000 walks", small, large)
	if small > ceiling || large > ceiling {
		t.Fatalf("allocs per run %v at 100 walks, %v at 3000 walks; want both <= %d", small, large, ceiling)
	}
}
