package stream

import (
	"errors"
	"math"
	"testing"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

func seedGraph(t *testing.T, spec sampling.WeightSpec, edges []temporal.Edge) *Graph {
	t.Helper()
	g := mustNew(t, Config{Weight: spec})
	for _, e := range edges {
		if err := g.AppendBatch([]temporal.Edge{e}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestDeleteBasics(t *testing.T) {
	// Five edges so a single deletion (20%) stays below the compaction
	// threshold and the tombstone remains observable.
	g := seedGraph(t, sampling.WeightSpec{}, []temporal.Edge{
		{Src: 0, Dst: 1, Time: 1}, {Src: 0, Dst: 2, Time: 2}, {Src: 0, Dst: 3, Time: 3},
		{Src: 0, Dst: 4, Time: 4}, {Src: 0, Dst: 5, Time: 5},
	})
	if err := g.DeleteEdges([]temporal.Edge{{Src: 0, Dst: 2, Time: 2}}); err != nil {
		t.Fatal(err)
	}
	if g.NumDeleted() != 1 {
		t.Fatalf("NumDeleted = %d", g.NumDeleted())
	}
	if g.LiveDegree(0) != 4 {
		t.Fatalf("LiveDegree = %d", g.LiveDegree(0))
	}
	if g.LiveCandidateCount(0, temporal.MinTime) != 4 {
		t.Fatalf("LiveCandidateCount = %d", g.LiveCandidateCount(0, temporal.MinTime))
	}
	if g.LiveCandidateCount(0, 1) != 3 {
		t.Fatalf("LiveCandidateCount(after 1) = %d", g.LiveCandidateCount(0, 1))
	}
	if g.LiveCandidateCount(0, 4) != 1 {
		t.Fatalf("LiveCandidateCount(after 4) = %d", g.LiveCandidateCount(0, 4))
	}
}

func TestDeleteErrors(t *testing.T) {
	g := seedGraph(t, sampling.WeightSpec{}, []temporal.Edge{{Src: 0, Dst: 1, Time: 1}})
	cases := []temporal.Edge{
		{Src: 0, Dst: 1, Time: 2},  // wrong time
		{Src: 0, Dst: 2, Time: 1},  // wrong dst
		{Src: 1, Dst: 0, Time: 1},  // wrong src
		{Src: 99, Dst: 0, Time: 1}, // unseen vertex
	}
	for _, e := range cases {
		if err := g.DeleteEdges([]temporal.Edge{e}); !errors.Is(err, ErrEdgeNotFound) {
			t.Errorf("delete %v: err = %v", e, err)
		}
	}
	// Double delete is an idempotent no-op while the tombstone survives.
	// (Here the lone edge compacts away immediately — 100% tombstoned — so
	// the re-delete reports not-found again; that is the documented
	// post-compaction caveat.)
	if err := g.DeleteEdges([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := g.DeleteEdges([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}}); !errors.Is(err, ErrEdgeNotFound) {
		t.Fatalf("re-delete after compaction err = %v, want ErrEdgeNotFound", err)
	}
}

func TestDeleteIdempotentWhileTombstoned(t *testing.T) {
	// Five edges: one deletion (20%) stays below the compaction threshold,
	// so the tombstone survives and the re-delete is a no-op.
	g := seedGraph(t, sampling.WeightSpec{}, []temporal.Edge{
		{Src: 0, Dst: 1, Time: 1}, {Src: 0, Dst: 2, Time: 2}, {Src: 0, Dst: 3, Time: 3},
		{Src: 0, Dst: 4, Time: 4}, {Src: 0, Dst: 5, Time: 5},
	})
	if err := g.DeleteEdges([]temporal.Edge{{Src: 0, Dst: 2, Time: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := g.DeleteEdges([]temporal.Edge{{Src: 0, Dst: 2, Time: 2}}); err != nil {
		t.Fatalf("re-delete of tombstoned edge err = %v, want nil", err)
	}
	if g.NumDeleted() != 1 || g.LiveDegree(0) != 4 {
		t.Fatalf("re-delete changed state: deleted=%d live=%d", g.NumDeleted(), g.LiveDegree(0))
	}
}

func TestDeleteBatchErrorReportsAppliedPrefix(t *testing.T) {
	// Sixteen edges keep three deletions (18.75%) below the 25% compaction
	// threshold, so the tombstones this test observes survive.
	var seed []temporal.Edge
	for i := 1; i <= 16; i++ {
		seed = append(seed, temporal.Edge{Src: 0, Dst: temporal.Vertex(i), Time: temporal.Time(i)})
	}
	g := seedGraph(t, sampling.WeightSpec{}, seed)
	batch := []temporal.Edge{
		{Src: 0, Dst: 1, Time: 1},
		{Src: 0, Dst: 2, Time: 2},
		{Src: 0, Dst: 99, Time: 99}, // never existed
		{Src: 0, Dst: 3, Time: 3},
	}
	err := g.DeleteEdges(batch)
	if !errors.Is(err, ErrEdgeNotFound) {
		t.Fatalf("err = %v, want ErrEdgeNotFound", err)
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BatchError", err)
	}
	if be.Applied != 2 {
		t.Fatalf("Applied = %d, want 2", be.Applied)
	}
	// The prefix really landed; the suffix did not.
	if g.NumDeleted() != 2 || g.LiveDegree(0) != 14 {
		t.Fatalf("after partial batch: deleted=%d live=%d", g.NumDeleted(), g.LiveDegree(0))
	}
	// Retrying the corrected batch is safe: the already-applied prefix
	// re-deletes as a no-op and the remainder lands.
	fixed := []temporal.Edge{
		{Src: 0, Dst: 1, Time: 1},
		{Src: 0, Dst: 2, Time: 2},
		{Src: 0, Dst: 3, Time: 3},
	}
	if err := g.DeleteEdges(fixed); err != nil {
		t.Fatalf("retry after fixing batch: %v", err)
	}
	if g.LiveDegree(0) != 13 {
		t.Fatalf("after retry: live=%d, want 13", g.LiveDegree(0))
	}
}

// Deleting an edge must redistribute its probability over the survivors
// exactly proportionally.
func TestDeletePreservesDistribution(t *testing.T) {
	g := seedGraph(t, sampling.WeightSpec{Kind: sampling.WeightLinearTime}, []temporal.Edge{
		{Src: 0, Dst: 1, Time: 10},
		{Src: 0, Dst: 2, Time: 20},
		{Src: 0, Dst: 3, Time: 30},
		{Src: 0, Dst: 4, Time: 40},
	})
	if err := g.DeleteEdges([]temporal.Edge{{Src: 0, Dst: 3, Time: 30}}); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(1)
	counts := map[temporal.Vertex]int{}
	const draws = 60000
	for i := 0; i < draws; i++ {
		dst, _, _, ok := g.SampleStep(0, temporal.MinTime, r)
		if !ok {
			t.Fatal("sample failed")
		}
		counts[dst]++
	}
	if counts[3] != 0 {
		t.Fatalf("deleted edge sampled %d times", counts[3])
	}
	// Live weights (linear-time, minTime=10): 1→1, 2→11, 4→31; total 43.
	want := map[temporal.Vertex]float64{1: 1.0 / 43, 2: 11.0 / 43, 4: 31.0 / 43}
	for v, p := range want {
		got := float64(counts[v]) / draws
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("dst %d frequency %.4f, want %.4f", v, got, p)
		}
	}
}

func TestDeleteEverythingDeadEnds(t *testing.T) {
	g := seedGraph(t, sampling.WeightSpec{}, []temporal.Edge{
		{Src: 0, Dst: 1, Time: 1}, {Src: 0, Dst: 2, Time: 2},
	})
	if err := g.DeleteEdges([]temporal.Edge{
		{Src: 0, Dst: 1, Time: 1}, {Src: 0, Dst: 2, Time: 2},
	}); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(2)
	if _, _, _, ok := g.SampleStep(0, temporal.MinTime, r); ok {
		t.Fatal("sampled from fully deleted vertex")
	}
	if g.LiveDegree(0) != 0 {
		t.Fatalf("LiveDegree = %d", g.LiveDegree(0))
	}
}

func TestDeleteFallbackScan(t *testing.T) {
	// One tiny-weight live edge among heavy tombstones forces the rejection
	// loop into the exact fallback path.
	g := seedGraph(t, sampling.Exponential(1), []temporal.Edge{
		{Src: 0, Dst: 1, Time: 1},  // tiny weight (oldest)
		{Src: 0, Dst: 2, Time: 50}, // dominant
		{Src: 0, Dst: 3, Time: 51}, // dominant
	})
	if err := g.DeleteEdges([]temporal.Edge{
		{Src: 0, Dst: 2, Time: 50}, {Src: 0, Dst: 3, Time: 51},
	}); err != nil {
		t.Fatal(err)
	}
	// Compaction threshold (2/3 deleted) will have compacted; force the
	// rejection path instead on a fresh graph with lower deletion fraction.
	g2 := seedGraph(t, sampling.Exponential(1), []temporal.Edge{
		{Src: 0, Dst: 1, Time: 1},
		{Src: 0, Dst: 2, Time: 2},
		{Src: 0, Dst: 3, Time: 3},
		{Src: 0, Dst: 4, Time: 4},
		{Src: 0, Dst: 5, Time: 60}, // dominates the distribution
	})
	if err := g2.DeleteEdges([]temporal.Edge{{Src: 0, Dst: 5, Time: 60}}); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(3)
	for i := 0; i < 2000; i++ {
		dst, _, _, ok := g2.SampleStep(0, temporal.MinTime, r)
		if !ok {
			t.Fatal("fallback failed")
		}
		if dst == 5 {
			t.Fatal("tombstoned dominant edge sampled")
		}
	}
}

func TestCompactionTriggers(t *testing.T) {
	edges := make([]temporal.Edge, 20)
	for i := range edges {
		edges[i] = temporal.Edge{Src: 0, Dst: temporal.Vertex(i + 1), Time: temporal.Time(i + 1)}
	}
	g := seedGraph(t, sampling.WeightSpec{}, edges)
	// Delete 6 of 20: the 5th deletion crosses the 25% threshold and
	// compacts (leaving the 6th as a fresh tombstone on the compacted
	// vertex).
	var del []temporal.Edge
	for i := 0; i < 6; i++ {
		del = append(del, edges[i*3])
	}
	if err := g.DeleteEdges(del); err != nil {
		t.Fatal(err)
	}
	if g.NumDeleted() != 1 {
		t.Fatalf("tombstones after threshold compaction: %d, want 1", g.NumDeleted())
	}
	if g.LiveDegree(0) != 14 {
		t.Fatalf("live degree after compaction: %d, want 14", g.LiveDegree(0))
	}
	if g.Degree(0) != 15 {
		t.Fatalf("slot degree after compaction: %d, want 15 (14 live + 1 tombstone)", g.Degree(0))
	}
	// Explicit compaction clears the remainder.
	g.CompactVertex(0)
	if g.NumDeleted() != 0 || g.Degree(0) != 14 || g.Segments(0) != 1 {
		t.Fatalf("after explicit compaction: deleted=%d degree=%d segs=%d",
			g.NumDeleted(), g.Degree(0), g.Segments(0))
	}
}

func TestDeleteThenMergeDoesNotResurrect(t *testing.T) {
	g := seedGraph(t, sampling.WeightSpec{}, []temporal.Edge{
		{Src: 0, Dst: 1, Time: 1},
		{Src: 0, Dst: 2, Time: 2},
		{Src: 0, Dst: 3, Time: 3},
		{Src: 0, Dst: 4, Time: 4},
		{Src: 0, Dst: 5, Time: 5},
		{Src: 0, Dst: 6, Time: 6},
		{Src: 0, Dst: 7, Time: 7},
		{Src: 0, Dst: 8, Time: 8},
	})
	// Delete one edge (12.5%, below compaction threshold).
	if err := g.DeleteEdges([]temporal.Edge{{Src: 0, Dst: 8, Time: 8}}); err != nil {
		t.Fatal(err)
	}
	// Appending equal-sized batches forces LSM merges over the tombstone.
	for i := 0; i < 8; i++ {
		if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 9, Time: temporal.Time(100 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range snap.OutDst(0) {
		if d == 8 {
			t.Fatal("deleted edge resurrected by merge")
		}
	}
	r := xrand.New(4)
	for i := 0; i < 3000; i++ {
		dst, _, _, ok := g.SampleStep(0, temporal.MinTime, r)
		if !ok {
			t.Fatal("sample failed")
		}
		if dst == 8 {
			t.Fatal("deleted edge sampled after merges")
		}
	}
}

// RebuildVertex builds from the live slots only: a deleted edge stays
// deleted, and the counts say so.
func TestRebuildVertexDoesNotResurrect(t *testing.T) {
	var edges []temporal.Edge
	for i := 0; i < 10; i++ {
		edges = append(edges, temporal.Edge{Src: 0, Dst: temporal.Vertex(i + 1), Time: temporal.Time(i + 1)})
	}
	g := seedGraph(t, sampling.WeightSpec{}, edges)
	gone := edges[4]
	if err := g.DeleteEdges([]temporal.Edge{gone}); err != nil {
		t.Fatal(err)
	}
	g.RebuildVertex(0)
	if g.Degree(0) != 9 || g.LiveDegree(0) != 9 || g.NumDeleted() != 0 || g.NumEdges() != 9 {
		t.Fatalf("after rebuild: Degree %d, LiveDegree %d, NumDeleted %d, NumEdges %d; want 9, 9, 0, 9",
			g.Degree(0), g.LiveDegree(0), g.NumDeleted(), g.NumEdges())
	}
	r := xrand.New(3)
	for i := 0; i < 2000; i++ {
		dst, at, _, ok := g.SampleStep(0, temporal.MinTime, r)
		if !ok {
			t.Fatal("sample failed")
		}
		if dst == gone.Dst && at == gone.Time {
			t.Fatalf("draw %d: the deleted edge %v came back", i, gone)
		}
	}
}

func TestSnapshotSkipsDeleted(t *testing.T) {
	g := seedGraph(t, sampling.WeightSpec{}, []temporal.Edge{
		{Src: 0, Dst: 1, Time: 1}, {Src: 0, Dst: 2, Time: 2},
		{Src: 0, Dst: 3, Time: 3}, {Src: 0, Dst: 4, Time: 4},
		{Src: 0, Dst: 5, Time: 5}, {Src: 0, Dst: 6, Time: 6},
		{Src: 0, Dst: 7, Time: 7}, {Src: 0, Dst: 8, Time: 8},
		{Src: 1, Dst: 2, Time: 9},
	})
	if err := g.DeleteEdges([]temporal.Edge{{Src: 0, Dst: 4, Time: 4}}); err != nil {
		t.Fatal(err)
	}
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Degree(0) != 7 {
		t.Fatalf("snapshot degree = %d, want 7", snap.Degree(0))
	}
	if snap.HasNeighbor(0, 4) {
		t.Fatal("snapshot contains deleted edge")
	}
}

func TestDeleteUnknownVertexSafe(t *testing.T) {
	g := mustNew(t, Config{})
	g.CompactVertex(5) // no-op, must not panic
	if g.LiveDegree(5) != 0 || g.LiveCandidateCount(5, 0) != 0 {
		t.Fatal("unseen vertex live accessors")
	}
}
