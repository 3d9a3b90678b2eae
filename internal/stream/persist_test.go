package stream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
)

// requireSameGraph asserts b is structurally identical to a: same counts,
// same per-vertex segment layout (destinations, timestamps, tombstones,
// scales), and — the property everything else exists to guarantee — the same
// seeded walks.
func requireSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() {
		t.Fatalf("vertices: %d vs %d", a.NumVertices(), b.NumVertices())
	}
	if a.NumEdges() != b.NumEdges() || a.NumDeleted() != b.NumDeleted() {
		t.Fatalf("edges: %d/%d vs %d/%d", a.NumEdges(), a.NumDeleted(), b.NumEdges(), b.NumDeleted())
	}
	if a.Frontier() != b.Frontier() || a.minTime != b.minTime || a.hasEdges != b.hasEdges {
		t.Fatalf("time bounds: (%d,%d,%v) vs (%d,%d,%v)",
			a.minTime, a.Frontier(), a.hasEdges, b.minTime, b.Frontier(), b.hasEdges)
	}
	for u := range a.verts {
		av, bv := a.verts[u], b.verts[u]
		aDegree, aDeleted := slots(av)
		bDegree, bDeleted := slots(bv)
		if aDegree != bDegree || aDeleted != bDeleted || len(av) != len(bv) {
			t.Fatalf("vertex %d shape: (%d,%d,%d) vs (%d,%d,%d)",
				u, aDegree, aDeleted, len(av), bDegree, bDeleted, len(bv))
		}
		for si := range av {
			as, bs := &av[si], &bv[si]
			if as.scale != bs.scale || as.deadCount() != bs.deadCount() {
				t.Fatalf("vertex %d seg %d: scale/dead (%v,%d) vs (%v,%d)",
					u, si, as.scale, as.deadCount(), bs.scale, bs.deadCount())
			}
			for i := 0; i < as.len(); i++ {
				if as.dst(i) != bs.dst(i) || as.ts(i) != bs.ts(i) || as.isDeleted(i) != bs.isDeleted(i) {
					t.Fatalf("vertex %d seg %d slot %d differs", u, si, i)
				}
			}
		}
	}
	for seed := uint64(1); seed <= 8; seed++ {
		for u := 0; u < a.NumVertices(); u++ {
			va, ta := a.WalkSeeded(temporal.Vertex(u), temporal.MinTime, 16, seed)
			vb, tb := b.WalkSeeded(temporal.Vertex(u), temporal.MinTime, 16, seed)
			if len(va) != len(vb) || len(ta) != len(tb) {
				t.Fatalf("walk(%d, seed %d): length %d/%d vs %d/%d", u, seed, len(va), len(ta), len(vb), len(tb))
			}
			for i := range va {
				if va[i] != vb[i] {
					t.Fatalf("walk(%d, seed %d) diverges at hop %d", u, seed, i)
				}
			}
			for i := range ta {
				if ta[i] != tb[i] {
					t.Fatalf("walk(%d, seed %d) hop times diverge at %d", u, seed, i)
				}
			}
		}
	}
}

// buildMixedGraph produces a graph exercising every structure the snapshot
// must capture: multi-segment vertices, tombstones, and an expired window.
func buildMixedGraph(t testing.TB) *Graph {
	t.Helper()
	g := mustNew(t, Config{Weight: sampling.WeightSpec{Kind: sampling.WeightExponential, Lambda: 0.05}})
	for b := 0; b < 12; b++ {
		var batch []temporal.Edge
		for i := 0; i < 6; i++ {
			src := temporal.Vertex((b + i) % 5)
			batch = append(batch, temporal.Edge{Src: src, Dst: temporal.Vertex(i + 1), Time: temporal.Time(10*b + i + 1)})
		}
		if err := g.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.DeleteEdges([]temporal.Edge{
		{Src: 0, Dst: 1, Time: 1},
		{Src: 1, Dst: 1, Time: 11},
	}); err != nil {
		t.Fatal(err)
	}
	g.ExpireBefore(15)
	return g
}

func TestSnapshotRoundtrip(t *testing.T) {
	g := buildMixedGraph(t)
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf, 42); err != nil {
		t.Fatal(err)
	}
	g2, lsn, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 42 {
		t.Fatalf("lsn = %d, want 42", lsn)
	}
	requireSameGraph(t, g, g2)

	// The restored graph keeps working: appends and deletes land.
	next := g2.Frontier() + 1
	if err := g2.AppendBatch([]temporal.Edge{{Src: 0, Dst: 9, Time: next}}); err != nil {
		t.Fatalf("append after restore: %v", err)
	}
	if err := g2.DeleteEdges([]temporal.Edge{{Src: 0, Dst: 9, Time: next}}); err != nil {
		t.Fatalf("delete after restore: %v", err)
	}
}

func TestSnapshotFileAtomicAndVerified(t *testing.T) {
	g := buildMixedGraph(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot")
	if err := WriteSnapshotFile(path, g, 7); err != nil {
		t.Fatal(err)
	}
	// No temp residue after a successful write.
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".snapshot-*")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	g2, lsn, err := ReadSnapshotFile(path)
	if err != nil || lsn != 7 {
		t.Fatalf("read: lsn %d err %v", lsn, err)
	}
	requireSameGraph(t, g, g2)

	// Any flipped byte must be caught by the CRC footer (or a structural
	// bound), never silently loaded.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 9, len(raw) / 2, len(raw) - 3} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0xFF
		if _, _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrSnapshotCorrupt", off, err)
		}
	}
	// Truncation (a torn snapshot that escaped the atomic rename) also fails.
	if _, _, err := ReadSnapshot(bytes.NewReader(raw[:len(raw)-4])); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("truncated snapshot: err = %v, want ErrSnapshotCorrupt", err)
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	g := mustNew(t, Config{})
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf, 0); err != nil {
		t.Fatal(err)
	}
	g2, lsn, err := ReadSnapshot(&buf)
	if err != nil || lsn != 0 {
		t.Fatalf("empty roundtrip: lsn %d err %v", lsn, err)
	}
	if g2.NumEdges() != 0 || g2.NumVertices() != g.NumVertices() {
		t.Fatalf("empty graph restored with %d edges, %d vertices", g2.NumEdges(), g2.NumVertices())
	}
	if err := g2.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 5}}); err != nil {
		t.Fatalf("append into restored empty graph: %v", err)
	}
}
