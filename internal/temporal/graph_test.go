package temporal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestFromEdgesEmpty(t *testing.T) {
	if _, err := FromEdges(nil); err != ErrNoEdges {
		t.Fatalf("FromEdges(nil) err = %v, want ErrNoEdges", err)
	}
	g, err := FromEdges(nil, WithNumVertices(5))
	if err != nil {
		t.Fatalf("FromEdges(nil, 5 vertices): %v", err)
	}
	if g.NumVertices() != 5 || g.NumEdges() != 0 {
		t.Fatalf("got V=%d E=%d, want 5, 0", g.NumVertices(), g.NumEdges())
	}
	for u := Vertex(0); u < 5; u++ {
		if g.Degree(u) != 0 {
			t.Fatalf("vertex %d degree %d, want 0", u, g.Degree(u))
		}
	}
}

func TestVertexRangeError(t *testing.T) {
	_, err := FromEdges([]Edge{{Src: 0, Dst: 9, Time: 1}}, WithNumVertices(5))
	if err == nil {
		t.Fatal("expected range error")
	}
}

func TestCommuteGraphShape(t *testing.T) {
	g := CommuteGraph()
	if g.NumVertices() != 10 {
		t.Fatalf("V = %d, want 10", g.NumVertices())
	}
	if g.NumEdges() != 10 {
		t.Fatalf("E = %d, want 10", g.NumEdges())
	}
	if g.Degree(7) != 7 {
		t.Fatalf("deg(7) = %d, want 7", g.Degree(7))
	}
	if g.MaxDegree() != 7 {
		t.Fatalf("MaxDegree = %d, want 7", g.MaxDegree())
	}
	wantDst := []Vertex{6, 5, 4, 3, 2, 1, 0}
	wantTs := []Time{7, 6, 5, 4, 3, 2, 1}
	if !reflect.DeepEqual(g.OutDst(7), wantDst) {
		t.Fatalf("OutDst(7) = %v, want %v", g.OutDst(7), wantDst)
	}
	if !reflect.DeepEqual(g.OutTimes(7), wantTs) {
		t.Fatalf("OutTimes(7) = %v, want %v", g.OutTimes(7), wantTs)
	}
}

// The paper's running example: arriving at 7 from 9 (t=4) leaves candidates
// {6,5,4}; from 0 (t=3) leaves {6,5,4,3}; from 8 (t=0) leaves all 7.
func TestCommuteCandidates(t *testing.T) {
	g := CommuteGraph()
	cases := []struct {
		after Time
		want  int
	}{
		{4, 3}, {3, 4}, {0, 7}, {7, 0}, {6, 1}, {-100, 7}, {100, 0},
	}
	for _, c := range cases {
		if got := g.CandidateCount(7, c.after); got != c.want {
			t.Errorf("CandidateCount(7, %d) = %d, want %d", c.after, got, c.want)
		}
	}
}

func TestCandidateStrictInequality(t *testing.T) {
	// An out-edge at exactly the arrival time is NOT a candidate (t_i > t).
	g := MustFromEdges([]Edge{
		{0, 1, 5}, {0, 2, 5}, {0, 3, 6},
	})
	if got := g.CandidateCount(0, 5); got != 1 {
		t.Fatalf("CandidateCount(0,5) = %d, want 1 (strict >)", got)
	}
}

func TestTimesDescendingInvariant(t *testing.T) {
	g := randomGraph(t, 500, 8000, 12345)
	for u := 0; u < g.NumVertices(); u++ {
		times := g.OutTimes(Vertex(u))
		for i := 1; i < len(times); i++ {
			if times[i] > times[i-1] {
				t.Fatalf("vertex %d times not descending at %d: %v > %v", u, i, times[i], times[i-1])
			}
		}
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	edges := []Edge{{0, 5, 7}, {0, 2, 7}, {0, 9, 7}, {0, 1, 8}}
	g := MustFromEdges(edges)
	want := []Vertex{1, 2, 5, 9} // time 8 first, then time-7 ties by dst asc
	if !reflect.DeepEqual(g.OutDst(0), want) {
		t.Fatalf("OutDst(0) = %v, want %v", g.OutDst(0), want)
	}
	// Build again from a shuffled stream; result must be identical.
	shuffled := []Edge{{0, 9, 7}, {0, 1, 8}, {0, 2, 7}, {0, 5, 7}}
	g2 := MustFromEdges(shuffled)
	if !reflect.DeepEqual(g2.OutDst(0), want) {
		t.Fatalf("shuffled build OutDst(0) = %v, want %v", g2.OutDst(0), want)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := randomGraph(t, 200, 3000, 42)
	edges := g.Edges(nil)
	g2 := MustFromEdges(edges, WithNumVertices(g.NumVertices()))
	if !reflect.DeepEqual(g.offsets, g2.offsets) ||
		!reflect.DeepEqual(g.dst, g2.dst) ||
		!reflect.DeepEqual(g.ts, g2.ts) {
		t.Fatal("Edges -> FromEdges round trip changed the graph")
	}
}

func TestPrecomputeCandidatesMatchesSearch(t *testing.T) {
	g := randomGraph(t, 300, 5000, 7)
	g.PrecomputeCandidates(4)
	if !g.HasCandidatePrecompute() {
		t.Fatal("precompute flag not set")
	}
	for u := 0; u < g.NumVertices(); u++ {
		for i := 0; i < g.Degree(Vertex(u)); i++ {
			dst, at := g.EdgeAt(Vertex(u), i)
			want := g.CandidateCount(dst, at)
			got := g.CandidateCountAfterEdge(Vertex(u), i)
			if got != want {
				t.Fatalf("edge (%d,%d,%d): precomputed %d, search %d", u, dst, at, got, want)
			}
		}
	}
}

func TestPrecomputeSingleThreadMatchesParallel(t *testing.T) {
	g1 := randomGraph(t, 300, 5000, 99)
	g2 := randomGraph(t, 300, 5000, 99)
	g1.PrecomputeCandidates(1)
	g2.PrecomputeCandidates(16)
	if !reflect.DeepEqual(g1.candAtDst, g2.candAtDst) {
		t.Fatal("thread count changed candidate precompute results")
	}
}

func TestEdgesInterval(t *testing.T) {
	g := CommuteGraph()
	sub := g.EdgesInterval(3, 5)
	if sub.NumVertices() != g.NumVertices() {
		t.Fatalf("interval changed vertex space: %d", sub.NumVertices())
	}
	// Edges with 3 <= t <= 5: (0,7,3), (9,7,4), (7,2,3), (7,3,4), (7,4,5).
	if sub.NumEdges() != 5 {
		t.Fatalf("interval edges = %d, want 5", sub.NumEdges())
	}
	if sub.Degree(7) != 3 {
		t.Fatalf("interval deg(7) = %d, want 3", sub.Degree(7))
	}
	lo, hi := sub.TimeRange()
	if lo < 3 || hi > 5 {
		t.Fatalf("interval time range [%d,%d] outside [3,5]", lo, hi)
	}
}

func TestEdgesIntervalEmpty(t *testing.T) {
	g := CommuteGraph()
	sub := g.EdgesInterval(100, 200)
	if sub.NumEdges() != 0 || sub.NumVertices() != 10 {
		t.Fatalf("empty interval: E=%d V=%d", sub.NumEdges(), sub.NumVertices())
	}
}

// subgraphCases are the graphs Restrict and EdgesInterval are checked on:
// random ones, one whose upper half of the id space is isolated, and one
// with negative and duplicate timestamps and duplicate edges.
func subgraphCases(t *testing.T) map[string]*Graph {
	r := rand.New(rand.NewSource(53))
	var negDup []Edge
	for i := 0; i < 800; i++ {
		e := Edge{Src: Vertex(r.Intn(30)), Dst: Vertex(r.Intn(30)), Time: Time(r.Intn(21) - 10)}
		if i > 0 && r.Intn(6) == 0 {
			e = negDup[r.Intn(i)]
		}
		negDup = append(negDup, e)
	}
	return map[string]*Graph{
		"random":   randomGraph(t, 300, 5000, 1),
		"sparse":   randomGraph(t, 500, 300, 2),
		"isolated": MustFromEdges(randomGraph(t, 40, 600, 3).Edges(nil), WithNumVertices(80)),
		"neg-dup":  MustFromEdges(negDup),
		"one-edge": MustFromEdges([]Edge{{Src: 1, Dst: 0, Time: -7}}),
		"no-edges": MustFromEdges(nil, WithNumVertices(5)),
	}
}

// fromEdgesWhere is the reference subgraph: FromEdges of g's edges that
// keep accepts, over g's vertex id space.
func fromEdgesWhere(t *testing.T, g *Graph, keep func(Edge) bool) *Graph {
	t.Helper()
	var edges []Edge
	for _, e := range g.Edges(nil) {
		if keep(e) {
			edges = append(edges, e)
		}
	}
	want, err := FromEdges(edges, WithNumVertices(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// Restrict copies the kept rows in place of a rebuild; it must equal
// FromEdges of those rows, array for array, for every part of a P-way
// split of the vertices and for a part holding no vertex at all.
func TestRestrictMatchesFromEdges(t *testing.T) {
	for name, g := range subgraphCases(t) {
		for _, parts := range []int{1, 2, 3, 8} {
			// Part `parts` is the empty partition.
			for part := 0; part <= parts; part++ {
				owned := func(u Vertex) bool { return int(uint32(u)*2654435761>>7)%parts == part }
				got := g.Restrict(owned)
				want := fromEdgesWhere(t, g, func(e Edge) bool { return owned(e.Src) })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s P=%d part %d: Restrict = %+v, FromEdges = %+v", name, parts, part, got, want)
				}
				if got.MemoryBytes() != want.MemoryBytes() {
					t.Fatalf("%s P=%d part %d: MemoryBytes %d, want %d", name, parts, part, got.MemoryBytes(), want.MemoryBytes())
				}
			}
		}
	}
}

// EdgesInterval copies each row's in-window run; it must equal FromEdges
// of the in-window edges on random windows, on windows that hold no edge
// and on inverted ones.
func TestEdgesIntervalMatchesFromEdges(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	for name, g := range subgraphCases(t) {
		lo, hi := g.TimeRange()
		windows := [][2]Time{{lo, hi}, {hi + 1, hi + 5}, {lo - 5, lo - 1}, {hi, lo - 1}, {MinTime, MaxTime}, {lo, lo}, {hi, hi}}
		for range 40 {
			a, b := lo-2+Time(r.Int63n(int64(hi-lo)+5)), lo-2+Time(r.Int63n(int64(hi-lo)+5))
			windows = append(windows, [2]Time{min(a, b), max(a, b)})
		}
		for _, w := range windows {
			got := g.EdgesInterval(w[0], w[1])
			want := fromEdgesWhere(t, g, func(e Edge) bool { return e.Time >= w[0] && e.Time <= w[1] })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s window [%d, %d]: EdgesInterval = %+v, FromEdges = %+v", name, w[0], w[1], got, want)
			}
		}
	}
}

func TestHasNeighbor(t *testing.T) {
	g := CommuteGraph()
	for _, withIndex := range []bool{false, true} {
		if withIndex {
			g.BuildNeighborIndex()
			if !g.HasNeighborIndex() {
				t.Fatal("neighbor index flag not set")
			}
		}
		if !g.HasNeighbor(7, 4) {
			t.Errorf("withIndex=%v: HasNeighbor(7,4) = false", withIndex)
		}
		if g.HasNeighbor(7, 8) {
			t.Errorf("withIndex=%v: HasNeighbor(7,8) = true", withIndex)
		}
		if g.HasNeighbor(1, 7) {
			t.Errorf("withIndex=%v: HasNeighbor(1,7) = true (1 has no out-edges)", withIndex)
		}
	}
}

func TestNeighborIndexDedup(t *testing.T) {
	// Parallel temporal edges to the same neighbor must appear once.
	g := MustFromEdges([]Edge{{0, 1, 1}, {0, 1, 2}, {0, 1, 3}, {0, 2, 1}})
	g.BuildNeighborIndex()
	ids := g.nbr.ids[g.nbr.offsets[0]:g.nbr.offsets[1]]
	if !reflect.DeepEqual(ids, []Vertex{1, 2}) {
		t.Fatalf("deduped neighbors = %v, want [1 2]", ids)
	}
}

func TestTimeRange(t *testing.T) {
	g := CommuteGraph()
	lo, hi := g.TimeRange()
	if lo != 0 || hi != 7 {
		t.Fatalf("TimeRange = [%d,%d], want [0,7]", lo, hi)
	}
}

func TestMemoryBytesGrowsWithIndices(t *testing.T) {
	g := CommuteGraph()
	base := g.MemoryBytes()
	if base <= 0 {
		t.Fatal("non-positive memory estimate")
	}
	g.PrecomputeCandidates(1)
	withCand := g.MemoryBytes()
	if withCand <= base {
		t.Fatal("candidate table did not increase memory estimate")
	}
	g.BuildNeighborIndex()
	if g.MemoryBytes() <= withCand {
		t.Fatal("neighbor index did not increase memory estimate")
	}
}

// Property: CandidateCount agrees with a naive scan for arbitrary times.
func TestCandidateCountProperty(t *testing.T) {
	g := randomGraph(t, 100, 2000, 2024)
	f := func(uRaw uint32, after int64) bool {
		u := Vertex(uRaw % uint32(g.NumVertices()))
		at := Time(after % 1000)
		naive := 0
		for _, ts := range g.OutTimes(u) {
			if ts > at {
				naive++
			}
		}
		return g.CandidateCount(u, at) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: FromEdges lays out exactly what a stable sort by (src asc,
// time desc, dst asc) gives, at any thread count, for streams in time
// order, in reverse and shuffled, with repeated times, duplicate edges and
// negative times.
func TestFromEdgesMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	for trial := 0; trial < 60; trial++ {
		v, e := 1+r.Intn(40), r.Intn(600)
		span := int64(1 + r.Intn(50)) // small spans repeat times
		edges := make([]Edge, e)
		for i := range edges {
			edges[i] = Edge{Src: Vertex(r.Intn(v)), Dst: Vertex(r.Intn(v)), Time: Time(r.Int63n(2*span) - span)}
			if i > 0 && r.Intn(8) == 0 {
				edges[i] = edges[r.Intn(i)]
			}
		}
		byTime := func(a, b Edge) int { return cmp.Compare(a.Time, b.Time) }
		for _, order := range []struct {
			name string
			put  func()
		}{
			{"shuffled", func() {}},
			{"stream", func() { slices.SortStableFunc(edges, byTime) }},
			{"reverse", func() { slices.Reverse(edges) }},
		} {
			order.put()
			name := order.name
			for _, threads := range []int{1, 3, 8} {
				if err := matchesStableSort(edges, v, threads); err != nil {
					t.Fatalf("trial %d, %s, threads=%d: %v", trial, name, threads, err)
				}
			}
		}
	}
}

// FuzzFromEdges checks FromEdges against the stable-sort reference on any
// edge list: 16 bytes per edge, vertex ids folded into a small range.
func FuzzFromEdges(f *testing.F) {
	f.Add([]byte{}, uint8(3))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 0x0000000200000001), 1<<63), uint8(8))
	f.Fuzz(func(t *testing.T, raw []byte, threads uint8) {
		const v = 64
		edges := make([]Edge, len(raw)/16)
		for i := range edges {
			ids := binary.LittleEndian.Uint64(raw[16*i:])
			edges[i] = Edge{Src: Vertex(ids % v), Dst: Vertex(ids >> 32 % v), Time: Time(binary.LittleEndian.Uint64(raw[16*i+8:]))}
		}
		if err := matchesStableSort(edges, v, int(threads%9)); err != nil {
			t.Fatal(err)
		}
	})
}

// matchesStableSort builds edges over v vertices at the given thread count
// and compares the graph with the reference layout.
func matchesStableSort(edges []Edge, v, threads int) error {
	input := slices.Clone(edges)
	g, err := FromEdges(edges, WithNumVertices(v), withThreads(threads))
	if err != nil {
		return err
	}
	if !slices.Equal(edges, input) {
		return fmt.Errorf("FromEdges modified its input")
	}
	want := slices.Clone(edges)
	slices.SortStableFunc(want, func(a, b Edge) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Time, a.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
	if got := g.Edges(nil); !slices.Equal(got, want) {
		return fmt.Errorf("layout\n got %v\nwant %v", got, want)
	}
	if g.NumVertices() != v {
		return fmt.Errorf("%d vertices, want %d", g.NumVertices(), v)
	}
	maxDeg, lo, hi := 0, Time(0), Time(0)
	for u := range v {
		maxDeg = max(maxDeg, g.Degree(Vertex(u)))
	}
	for i, e := range edges {
		if i == 0 {
			lo, hi = e.Time, e.Time
		}
		lo, hi = min(lo, e.Time), max(hi, e.Time)
	}
	if gl, gh := g.TimeRange(); g.MaxDegree() != maxDeg || gl != lo || gh != hi {
		return fmt.Errorf("MaxDegree %d, TimeRange (%d, %d); want %d, (%d, %d)", g.MaxDegree(), gl, gh, maxDeg, lo, hi)
	}
	return nil
}

func TestRadixHandlesNegativeTimes(t *testing.T) {
	edges := []Edge{{0, 1, -5}, {0, 2, 10}, {0, 3, -1}, {0, 4, 0}}
	g := MustFromEdges(edges)
	want := []Time{10, 0, -1, -5}
	if !reflect.DeepEqual(g.OutTimes(0), want) {
		t.Fatalf("OutTimes(0) = %v, want %v", g.OutTimes(0), want)
	}
}

func TestEdgeString(t *testing.T) {
	e := Edge{Src: 7, Dst: 6, Time: 7}
	if e.String() != "(7, 6, 7)" {
		t.Fatalf("Edge.String() = %q", e.String())
	}
}

// randomGraph builds a reproducible random temporal graph for tests.
func randomGraph(t testing.TB, v, e int, seed int64) *Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	edges := make([]Edge, e)
	for i := range edges {
		edges[i] = Edge{
			Src:  Vertex(r.Intn(v)),
			Dst:  Vertex(r.Intn(v)),
			Time: Time(r.Intn(1000)),
		}
	}
	g, err := FromEdges(edges, WithNumVertices(v))
	if err != nil {
		t.Fatalf("randomGraph: %v", err)
	}
	return g
}

func BenchmarkCandidateCount(b *testing.B) {
	g := randomGraph(b, 1000, 100000, 1)
	for i := 0; i < b.N; i++ {
		_ = g.CandidateCount(Vertex(i%1000), Time(i%1000))
	}
}

// BenchmarkFromEdges builds 2^20 edges over 2^16 vertices from a stream in
// time order, which every vertex reverses, and from the same stream
// shuffled, which every vertex sorts.
func BenchmarkFromEdges(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	stream := make([]Edge, 1<<20)
	for i := range stream {
		stream[i] = Edge{Src: Vertex(r.Intn(1 << 16)), Dst: Vertex(r.Intn(1 << 16)), Time: Time(i)}
	}
	shuffled := slices.Clone(stream)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, bc := range []struct {
		name  string
		edges []Edge
	}{{"stream", stream}, {"shuffled", shuffled}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FromEdges(bc.edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
