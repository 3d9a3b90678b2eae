package workload

import (
	"context"
	"slices"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/temporal"
)

// testVertices gives E ≈ 50,000.
const testVertices = 2564

func TestGenerateIsDeterministic(t *testing.T) {
	a, b := Generate(testVertices, 7), Generate(testVertices, 7)
	if !slices.Equal(a.Edges, b.Edges) {
		t.Fatal("same seed gave different streams")
	}
	c := Generate(testVertices, 8)
	if slices.Equal(a.Edges, c.Edges) {
		t.Fatal("different seeds gave the same stream")
	}
	if !slices.Equal(a.Requests(100, 3), b.Requests(100, 3)) || slices.Equal(a.Requests(100, 3), a.Requests(100, 4)) {
		t.Fatal("request lists do not follow their seed")
	}
}

func TestStreamIsALegalIngestStream(t *testing.T) {
	s := Generate(testVertices, 1)
	if n := len(s.Edges); n < 45_000 || n > 55_000 {
		t.Fatalf("E = %d, want about 50,000", n)
	}
	seen := make([]bool, s.V)
	for i, e := range s.Edges {
		if e.Time != temporal.Time(i+1) {
			t.Fatalf("edge %d is stamped %d: stamps must be 1..E in order", i, e.Time)
		}
		if int(e.Src) >= s.V || int(e.Dst) >= s.V {
			t.Fatalf("edge %d leaves the vertex range", i)
		}
		seen[e.Src] = true
		if got, ok := s.Edge(e.Time); !ok || got != e {
			t.Fatalf("Edge(%d) = %v, %v", e.Time, got, ok)
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("vertex %d has no out-edge", i)
	}
	if _, ok := s.Edge(0); ok {
		t.Fatal("Edge(0) should not exist")
	}
}

// The generator exists to make walks long and candidate prefixes partial:
// with internal/gen's streams walks die after ~2 steps and every prefix is
// the whole adjacency list.
func TestWalksAreLongAndPrefixesPartial(t *testing.T) {
	s := Generate(testVertices, 1)
	g, err := temporal.FromEdges(s.Edges, temporal.WithNumVertices(s.V))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g, core.ExponentialWalk(s.Lambda()), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunContext(context.Background(), core.WalkConfig{Length: 80, Seed: 1, KeepPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(res.Cost.Steps) / float64(res.Cost.WalksStarted)
	if mean < 40 {
		t.Errorf("mean walk length %.1f of 80, want at least 40", mean)
	}
	share, calls := 0.0, 0
	for _, p := range res.Paths {
		after := temporal.MinTime
		for i, at := range p.Times {
			share += float64(g.CandidateCount(p.Vertices[i], after)) / float64(g.Degree(p.Vertices[i]))
			calls++
			after = at
		}
	}
	if share /= float64(calls); share < 0.3 || share > 0.9 {
		t.Errorf("mean candidate prefix share %.2f, want within [0.3, 0.9]", share)
	}
}

func TestRecentRequestsStartAtActiveVertices(t *testing.T) {
	s := Generate(testVertices, 1)
	lo, hi := 10_000, 12_000
	active := map[temporal.Vertex]bool{}
	for _, e := range s.Edges[lo:hi] {
		active[e.Src] = true
	}
	for _, r := range s.RecentRequests(500, lo, hi, 5) {
		if !active[r.From] {
			t.Fatalf("request starts at %d, which sent no edge in [%d, %d)", r.From, lo, hi)
		}
	}
}
