package hpat

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/tea-graph/tea/internal/baseline"
	"github.com/tea-graph/tea/internal/pat"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/xrand"
)

func TestDecomposeKnownValues(t *testing.T) {
	// The paper's example: 7 = 4+2+1 yields trunks {6,5,4,3}, {2,1}, {0} —
	// levels 2,1,0 at positions 0,4,6 (Figure 6d).
	got := Decompose(7, nil)
	want := []DecompEntry{{Pos: 0, Level: 2}, {Pos: 4, Level: 1}, {Pos: 6, Level: 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decompose(7) = %v, want %v", got, want)
	}
	if got := Decompose(4, nil); !reflect.DeepEqual(got, []DecompEntry{{Pos: 0, Level: 2}}) {
		t.Fatalf("Decompose(4) = %v", got)
	}
	if got := Decompose(0, nil); len(got) != 0 {
		t.Fatalf("Decompose(0) = %v", got)
	}
}

// Property: a decomposition tiles [0, m) with aligned power-of-two trunks in
// strictly descending level order.
func TestDecomposeProperty(t *testing.T) {
	f := func(raw uint32) bool {
		m := int(raw % 1_000_000)
		dec := Decompose(m, nil)
		if len(dec) != bits.OnesCount(uint(m)) {
			return false
		}
		pos := 0
		prevLevel := 255
		for _, d := range dec {
			if int(d.Pos) != pos {
				return false
			}
			if int(d.Level) >= prevLevel {
				return false // levels must strictly decrease
			}
			if pos%(1<<d.Level) != 0 {
				return false // alignment: Pos multiple of size
			}
			prevLevel = int(d.Level)
			pos += d.Size()
		}
		return pos == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAuxIndexMatchesDecompose(t *testing.T) {
	aux := BuildAuxIndex(300, 0)
	if aux.MaxSize() != 300 {
		t.Fatalf("MaxSize = %d", aux.MaxSize())
	}
	if len(aux.Decomp(0)) != 0 {
		t.Fatalf("Decomp(0) = %v", aux.Decomp(0))
	}
	for m := 1; m <= 300; m++ {
		if !reflect.DeepEqual(aux.Decomp(m), Decompose(m, nil)) {
			t.Fatalf("aux.Decomp(%d) = %v, want %v", m, aux.Decomp(m), Decompose(m, nil))
		}
	}
}

// Every §4.2 build splits its index range over threads (par.For) and each
// chunk writes a disjoint range, so arrays and seeded draws are the same at
// any thread count. Every 17th vertex of the graph is a hub, so at 3 and 8
// threads hubs land in different chunks.
func TestParallelBuildsMatchSerial(t *testing.T) {
	r := xrand.New(44)
	var edges []temporal.Edge
	const numV = 120
	for u := 0; u < numV; u++ {
		for i := 0; i < 300/(1+u%17); i++ {
			edges = append(edges, temporal.Edge{
				Src: temporal.Vertex(u), Dst: temporal.Vertex(r.IntN(numV)), Time: temporal.Time(r.IntN(1000)),
			})
		}
	}
	g := temporal.MustFromEdges(edges, temporal.WithNumVertices(numV))
	spec := sampling.Exponential(0.01)
	w := testutil.Weights(t, g, spec)
	type sampler interface {
		Sample(temporal.Vertex, int, *xrand.Rand) (int, int64, bool)
	}
	builds := []struct {
		name  string
		build func(threads int) any
	}{
		{"BuildGraphWeights", func(threads int) any {
			w, err := sampling.BuildGraphWeights(g, spec, threads)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}},
		{"PrecomputeCandidates", func(threads int) any {
			g.PrecomputeCandidates(threads)
			return *g // a copy holding this call's candidate table
		}},
		{"hpat.Build", func(threads int) any {
			idx := Build(w, Config{Threads: threads})
			idx.buildNS = buildTiming{}
			return idx
		}},
		{"pat.Build", func(threads int) any { return pat.Build(w, pat.Config{Threads: threads}) }},
		{"NewAliasFull", func(threads int) any {
			af, err := baseline.NewAliasFull(w, 0, threads)
			if err != nil {
				t.Fatal(err)
			}
			return af
		}},
		{"BuildAuxIndex", func(threads int) any { return BuildAuxIndex(5000, threads) }},
	}
	// draws samples every prefix of every vertex three times from one seed.
	draws := func(s sampler) (out [][3]int64) {
		r := xrand.New(7)
		for u := 0; u < numV; u++ {
			for k := 1; k <= g.Degree(temporal.Vertex(u)); k++ {
				for i := 0; i < 3; i++ {
					e, eval, ok := s.Sample(temporal.Vertex(u), k, r)
					if !ok {
						e = -1
					}
					out = append(out, [3]int64{int64(u), int64(e), eval})
				}
			}
		}
		return out
	}
	for _, b := range builds {
		serial := b.build(1)
		for _, threads := range []int{3, 8} {
			got := b.build(threads)
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("%s at %d threads differs from 1 thread", b.name, threads)
			}
			if s, ok := got.(sampler); ok && !reflect.DeepEqual(draws(s), draws(serial.(sampler))) {
				t.Fatalf("%s at %d threads draws differently from 1 thread", b.name, threads)
			}
		}
	}
}

func TestAuxIndexPanicsOutOfRange(t *testing.T) {
	aux := BuildAuxIndex(10, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range size")
		}
	}()
	aux.Decomp(11)
}

func TestSlotCountAndLevelBases(t *testing.T) {
	for _, tc := range []struct {
		n, level int
		base     int // slot offset of level's tables
		slots    int64
	}{
		{n: 0, level: minTableLevel, slots: 0},
		{n: 31, level: minTableLevel, slots: 0},
		{n: 32, level: 5, base: 0, slots: 32},
		// n=100: level 5 has 3 trunks of 32 (96 slots), level 6 one of 64.
		{n: 100, level: 6, base: 96, slots: 160},
		// Levels 5..30 of 2^30 edges hold 2^30 slots each; the top level's
		// base passes 2^31, which an int32 accumulator wrapped negative.
		{n: 1 << 30, level: 30, base: 25 << 30, slots: 26 << 30},
		{n: 1<<30 + 33, level: 30, base: 25<<30 + 32, slots: 26<<30 + 32},
	} {
		if got := slotCount(tc.n); got != tc.slots {
			t.Errorf("slotCount(%d) = %d, want %d", tc.n, got, tc.slots)
		}
		if got := levelBase(tc.n, tc.level); got != tc.base {
			t.Errorf("levelBase(%d, %d) = %d, want %d", tc.n, tc.level, got, tc.base)
		}
	}
}

func buildCommuteIndex(t *testing.T, cfg Config) *Index {
	t.Helper()
	g := temporal.CommuteGraph()
	w := testutil.Weights(t, g, sampling.WeightSpec{Kind: sampling.WeightLinearRank})
	return Build(w, cfg)
}

// Figure 6 scenario: candidate set {6,5,4} (arrival from 9 at t=4) decomposes
// into trunks {6,5} and {4}; sampled distribution must match weights 7,6,5.
func TestFigure6Distribution(t *testing.T) {
	idx := buildCommuteIndex(t, Config{Threads: 1})
	r := xrand.New(1)
	k := idx.Graph().CandidateCount(7, 4)
	if k != 3 {
		t.Fatalf("candidates = %d", k)
	}
	testutil.CheckDistribution(t, "fig6", []float64{7, 6, 5}, 40000, func() (int, bool) {
		e, _, ok := idx.Sample(7, k, r)
		return e, ok
	})
}

// Every prefix of a degree-70 hub: lengths below 32 are all tail run, 32 and
// 64 a single table trunk, the rest a mix of both.
func TestEveryPrefixEveryConfig(t *testing.T) {
	g := testutil.SkewedGraph(t, 8, 70)
	w := testutil.Weights(t, g, sampling.WeightSpec{Kind: sampling.WeightLinearRank})
	for _, disableAux := range []bool{false, true} {
		idx := Build(w, Config{Threads: 1, DisableAuxIndex: disableAux})
		r := xrand.New(2)
		for k := 1; k <= 70; k++ {
			testutil.CheckDistribution(t, "prefix", w.Vertex(0)[:k], 20000, func() (int, bool) {
				e, _, ok := idx.Sample(0, k, r)
				return e, ok
			})
		}
	}
}

// A vertex with fewer than 2^minTableLevel edges owns no slots at all and is
// sampled from its prefix sums alone.
func TestBelowTableFloorPath(t *testing.T) {
	idx := buildCommuteIndex(t, Config{})
	g := idx.Graph()
	if slots := len(idx.words) - g.NumEdges() - g.NumVertices(); slots != 0 {
		t.Fatalf("degree-7 graph has %d alias slots", slots)
	}
	r := xrand.New(3)
	testutil.CheckDistribution(t, "tail", []float64{7, 6, 5, 4}, 40000, func() (int, bool) {
		e, _, ok := idx.Sample(7, 4, r)
		return e, ok
	})
}

func TestZeroAndDegenerate(t *testing.T) {
	idx := buildCommuteIndex(t, Config{})
	r := xrand.New(4)
	if _, _, ok := idx.Sample(7, 0, r); ok {
		t.Fatal("k=0 sampled")
	}
	if _, _, ok := idx.Sample(1, 3, r); ok {
		t.Fatal("degree-0 vertex sampled")
	}
	if _, _, ok := idx.Sample(7, -2, r); ok {
		t.Fatal("negative k sampled")
	}
}

func TestKClamped(t *testing.T) {
	idx := buildCommuteIndex(t, Config{})
	r := xrand.New(5)
	for i := 0; i < 2000; i++ {
		e, _, ok := idx.Sample(7, 1000, r)
		if !ok || e < 0 || e >= 7 {
			t.Fatalf("clamped sample (%d,%v)", e, ok)
		}
	}
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 20000, 2000, 9)
	w := testutil.Weights(t, g, sampling.Exponential(0.01))
	a := Build(w, Config{Threads: 1})
	b := Build(w, Config{Threads: 8})
	if !reflect.DeepEqual(a.words, b.words) || !reflect.DeepEqual(a.off, b.off) {
		t.Fatal("parallel HPAT build differs from serial")
	}
}

func TestRandomGraphDistributionAllWeights(t *testing.T) {
	g := testutil.RandomGraph(t, 40, 2500, 800, 10)
	specs := []sampling.WeightSpec{
		{Kind: sampling.WeightUniform},
		{Kind: sampling.WeightLinearTime},
		{Kind: sampling.WeightLinearRank},
		sampling.Exponential(0.01),
	}
	best := temporal.Vertex(0)
	for u := 0; u < g.NumVertices(); u++ {
		if g.Degree(temporal.Vertex(u)) > g.Degree(best) {
			best = temporal.Vertex(u)
		}
	}
	deg := g.Degree(best)
	for si, spec := range specs {
		w := testutil.Weights(t, g, spec)
		idx := Build(w, Config{})
		r := xrand.New(uint64(20 + si))
		for _, k := range []int{1, 3, deg / 2, deg} {
			if k < 1 {
				continue
			}
			want := append([]float64(nil), w.Vertex(best)[:k]...)
			testutil.CheckDistribution(t, spec.Kind.String(), want, 25000, func() (int, bool) {
				e, _, ok := idx.Sample(best, k, r)
				return e, ok
			})
		}
	}
}

// HPAT and PAT-level exactness: sampling cost must be O(log log D)-ish, far
// below the degree, even on a 2^14-degree hub.
func TestEvaluatedCostTiny(t *testing.T) {
	g := testutil.SkewedGraph(t, 64, 1<<14)
	w := testutil.Weights(t, g, sampling.Exponential(0.0005))
	idx := Build(w, Config{})
	r := xrand.New(11)
	deg := g.Degree(0)
	var maxEval int64
	for i := 0; i < 5000; i++ {
		k := 1 + r.IntN(deg)
		_, ev, ok := idx.Sample(0, k, r)
		if !ok {
			t.Fatal("sample failed")
		}
		if ev > maxEval {
			maxEval = ev
		}
	}
	if maxEval > 24 {
		t.Fatalf("HPAT evaluated %d slots on a degree-%d vertex", maxEval, deg)
	}
}

func TestHPATNameReflectsAux(t *testing.T) {
	with := buildCommuteIndex(t, Config{})
	without := buildCommuteIndex(t, Config{DisableAuxIndex: true})
	if with.Name() != "HPAT+Index" || !with.HasAuxIndex() {
		t.Fatalf("with-aux name %q", with.Name())
	}
	if without.Name() != "HPAT" || without.HasAuxIndex() {
		t.Fatalf("without-aux name %q", without.Name())
	}
}

func TestMemoryLargerThanPATScale(t *testing.T) {
	g := testutil.SkewedGraph(t, 64, 4096)
	w := testutil.Weights(t, g, sampling.WeightSpec{})
	idx := Build(w, Config{})
	// O(D log D) slots: the hub alone has levels 5..12 of 4096 slots each.
	if idx.MemoryBytes() < 8*4096*8 {
		t.Fatalf("suspiciously small HPAT: %d bytes", idx.MemoryBytes())
	}
	hp, ax := idx.BuildTimings()
	if hp <= 0 || ax <= 0 {
		t.Fatalf("build timings not recorded: hpat=%d aux=%d", hp, ax)
	}
}

func TestTotalMatchesPrefixSum(t *testing.T) {
	idx := buildCommuteIndex(t, Config{})
	want := []float64{0, 7, 13, 18, 22, 25, 27, 28}
	for k, v := range want {
		if got := BlockTotal(idx.block(7), k); got != v {
			t.Fatalf("BlockTotal(block(7), %d) = %v, want %v", k, got, v)
		}
	}
}

// newBlock builds a standalone block over w.
func newBlock(w []float64) []uint64 {
	words := make([]uint64, BlockWords(len(w)))
	BuildBlock(w, words, new(BlockScratch))
	return words
}

func TestTableMatchesIndexDistribution(t *testing.T) {
	w := []float64{7, 6, 5, 4, 3, 2, 1}
	block := newBlock(w)
	if len(block) != 8 {
		t.Fatalf("BlockWords(7) = %d", len(block))
	}
	aux := BuildAuxIndex(8, 0)
	r := xrand.New(12)
	for _, useAux := range []bool{true, false} {
		for k := 1; k <= 7; k++ {
			want := w[:k]
			a := aux
			if !useAux {
				a = nil
			}
			testutil.CheckDistribution(t, "table", want, 15000, func() (int, bool) {
				e, _, ok := SampleBlock(block, len(w), k, a, r)
				return e, ok
			})
		}
	}
}

func TestTableDegenerate(t *testing.T) {
	r := xrand.New(14)
	empty := newBlock(nil)
	if _, _, ok := SampleBlock(empty, 0, 1, nil, r); ok {
		t.Fatal("empty block sampled")
	}
	if len(empty) != 1 {
		t.Fatalf("empty block holds %d words, want its one prefix sum", len(empty))
	}
	single := newBlock([]float64{2})
	e, _, ok := SampleBlock(single, 1, 1, nil, r)
	if !ok || e != 0 {
		t.Fatalf("single-edge block sample (%d,%v)", e, ok)
	}
	zero := newBlock([]float64{0, 0})
	if _, _, ok := SampleBlock(zero, 2, 2, nil, r); ok {
		t.Fatal("zero-weight block sampled")
	}
}

// The builder reads the weights only during the call, so callers may reuse
// their buffer.
func TestTableCopiesWeights(t *testing.T) {
	w := []float64{3, 2, 1}
	block := newBlock(w)
	w[0] = 999
	if got := BlockTotal(block, 3); got != 6 {
		t.Fatalf("block total %v after the caller reused its buffer, want 6", got)
	}
}

func BenchmarkHPATSampleWithAux(b *testing.B) {
	benchSample(b, Config{})
}

func BenchmarkHPATSampleNoAux(b *testing.B) {
	benchSample(b, Config{DisableAuxIndex: true})
}

func benchSample(b *testing.B, cfg Config) {
	g := testutil.SkewedGraph(b, 64, 1<<14)
	w, err := sampling.BuildGraphWeights(g, sampling.Exponential(0.0005), 0)
	if err != nil {
		b.Fatal(err)
	}
	idx := Build(w, cfg)
	r := xrand.New(1)
	deg := g.Degree(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Sample(0, 1+r.IntN(deg), r)
	}
}

func BenchmarkHPATBuild(b *testing.B) {
	g := testutil.RandomGraph(b, 2000, 200000, 10000, 1)
	w, err := sampling.BuildGraphWeights(g, sampling.Exponential(0.001), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(w, Config{})
	}
}

func BenchmarkAuxIndexBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BuildAuxIndex(1<<20, 0)
	}
}

// The byte budget of the layout is an exact count, so it is pinned here and
// not only in the benchmark: over a Zipf(0.8) degree sequence of mean 19.5
// (the shape of the benchmark's graph), MemoryBytes must equal the closed-form
// sum of the arrays the layout is allowed to hold — 8-byte slots from level
// minTableLevel up, one offset per vertex, no per-edge weights — and index
// plus graph must stay under 42 B/edge (the v1 layout measured 92.0 here,
// the v2 layout with its weight array 48.3).
func TestIndexBytesBudget(t *testing.T) {
	const numV, meanDegree, zipf = 2000, 19.5, 0.8
	h := 0.0
	for r := 1; r <= numV; r++ {
		h += math.Pow(float64(r), -zipf)
	}
	var edges []temporal.Edge
	var slots, maxDeg int64
	for u := 0; u < numV; u++ {
		deg := max(1, int(meanDegree*numV/h*math.Pow(float64(u+1), -zipf)+0.5))
		for i := 0; i < deg; i++ {
			edges = append(edges, temporal.Edge{Src: temporal.Vertex(u), Dst: temporal.Vertex((u + 1 + i) % numV), Time: temporal.Time(i + 1)})
		}
		for j := 5; deg>>j > 0; j++ {
			slots += int64(deg>>j) << j
		}
		maxDeg = max(maxDeg, int64(deg))
	}
	g, err := temporal.FromEdges(edges, temporal.WithNumVertices(numV))
	if err != nil {
		t.Fatal(err)
	}
	g.PrecomputeCandidates(0) // as every engine does: the graph's 16.4 B/edge
	idx := Build(testutil.Weights(t, g, sampling.Exponential(0.01)), Config{})

	numE := int64(len(edges))
	auxEntries := int64(0)
	for m := int64(1); m <= maxDeg; m++ {
		auxEntries += int64(bits.OnesCount64(uint64(m)))
	}
	want := 8*(numE+numV) + // prefix sums, deg+1 per vertex
		8*slots +
		8*(numV+1) + // block offsets
		8*(maxDeg+2) + 8*auxEntries // auxiliary index
	if got := idx.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, layout sum %d", got, want)
	}
	if perEdge := float64(idx.MemoryBytes()+g.MemoryBytes()) / float64(numE); perEdge > 42 {
		t.Fatalf("index + graph = %.1f B/edge, budget 42", perEdge)
	} else {
		t.Logf("index + graph = %.2f B/edge over %d edges", perEdge, numE)
	}
}

// The standalone block API replaced the heap-owning Table: the streaming
// engine keeps each segment's block inside the segment's one arena.
func TestNoStandaloneTable(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, spec := range gd.Specs {
						if spec.(*ast.TypeSpec).Name.Name == "Table" {
							t.Fatalf("%s declares Table", name)
						}
					}
				}
			}
		}
	}
}
