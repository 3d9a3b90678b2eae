package stream

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// goldenVerts is the vertex space of the golden stream; vertex 0 is a hub
// that receives a quarter of all edges, so its segments grow past the HPAT
// table floor and merge many times.
const goldenVerts = 40

// goldenStream appends a seeded stream of batches of 1..120 edges, with
// ties in time inside a batch and batch order shuffled, and returns every
// edge appended (in append order).
func goldenStream(t *testing.T, g *Graph, r *xrand.Rand, batches int) []temporal.Edge {
	t.Helper()
	var all []temporal.Edge
	for b := 0; b < batches; b++ {
		n := 1 + r.IntN(120)
		base := g.Frontier() + 1
		if base <= 0 {
			base = 1
		}
		batch := make([]temporal.Edge, n)
		for i := range batch {
			src := temporal.Vertex(r.IntN(goldenVerts))
			if r.IntN(4) == 0 {
				src = 0
			}
			batch[i] = temporal.Edge{Src: src, Dst: temporal.Vertex(r.IntN(goldenVerts)), Time: base + temporal.Time(r.IntN(n))}
		}
		if err := g.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	return all
}

// walkHash hashes seeded walks from every vertex, from the beginning of
// time and from the middle of the stream.
func walkHash(g *Graph) string {
	h := fnv.New64a()
	mid := g.Frontier() / 2
	for u := 0; u < g.NumVertices(); u++ {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, start := range []temporal.Time{temporal.MinTime, mid} {
				vs, ts := g.WalkSeeded(temporal.Vertex(u), start, 24, seed*7919+uint64(u))
				fmt.Fprint(h, vs, ts, "|")
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func bytesHash(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// liveHubEdges returns the hub's live edges, newest first.
func liveHubEdges(all []temporal.Edge, deleted map[temporal.Edge]int) []temporal.Edge {
	var hub []temporal.Edge
	gone := map[temporal.Edge]int{}
	for e, n := range deleted {
		gone[e] = n
	}
	for _, e := range all {
		if e.Src != 0 {
			continue
		}
		if gone[e] > 0 {
			gone[e]--
			continue
		}
		hub = append(hub, e)
	}
	sort.SliceStable(hub, func(i, j int) bool { return hub[i].Time > hub[j].Time })
	return hub
}

// TestStreamWalkGolden pins every seeded walk of a stream graph through the
// whole mutation surface — LSM merges, tombstones (rejection and the exact
// fallback scan), compaction, expiry, rebuild — and the bytes of its
// snapshot, for all four weight kinds. Any change to segment layout that
// alters a draw, a weight bit or the snapshot image fails here.
func TestStreamWalkGolden(t *testing.T) {
	golden := map[sampling.WeightKind][]string{
		sampling.WeightUniform: {"append=72586558b79b7408", "fallback=6193e6165a1db4e5",
			"delete=602f3debbe4987f8", "compact=c8fd3cc55a74749d", "expire=05363f35fca733af",
			"regrow=b4115e05805436d7", "snapshot=850e38698a8cdc78"},
		sampling.WeightLinearTime: {"append=181cee278153e36f", "fallback=4e6c8dc7a51221ed",
			"delete=8b14ea758286a75a", "compact=c5105afbceecb3b3", "expire=cc797bb3548a01a2",
			"regrow=9d195cabb925a79e", "snapshot=ca87c9cbfcbafee9"},
		sampling.WeightLinearRank: {"append=f39d7d05908e618d", "fallback=68805794189516a5",
			"delete=1a8eea3f27d78f91", "compact=8b2ed4c528251b7f", "expire=b44ccf3e1c214629",
			"regrow=1c89f3068ef3a9b4", "snapshot=f22b87a2f38d0008"},
		sampling.WeightExponential: {"append=4ce1c4d7b80f3f36", "fallback=2a18b7c69f6143e5",
			"delete=e7fee55cde86461c", "compact=bc292eb803c9357f", "expire=2e9b8f7377dd270f",
			"regrow=92303525f04ff469", "snapshot=c373e39aba9a9dba"},
	}
	specs := []sampling.WeightSpec{
		{Kind: sampling.WeightUniform},
		{Kind: sampling.WeightLinearTime},
		{Kind: sampling.WeightLinearRank},
		sampling.Exponential(0.004),
	}
	for _, spec := range specs {
		t.Run(spec.Kind.String(), func(t *testing.T) {
			var got []string
			stage := func(name, hash string) {
				got = append(got, name+"="+hash)
			}
			g := mustNew(t, Config{Weight: spec})
			r := xrand.New(uint64(spec.Kind) + 11)
			all := goldenStream(t, g, r, 60)
			stage("append", walkHash(g))

			// Tombstones: a scattered 6 % (some vertices pass the compaction
			// threshold), then the hub's newest run. Every candidate after
			// the cut but its oldest is deleted, so the walker either finds
			// that one edge by rejection or falls back to the exact scan.
			deleted := map[temporal.Edge]int{}
			var scattered []temporal.Edge
			for _, e := range all {
				if e.Src != 0 && r.IntN(16) == 0 {
					scattered = append(scattered, e)
					deleted[e]++
				}
			}
			if err := g.DeleteEdges(scattered); err != nil {
				t.Fatal(err)
			}
			hub := liveHubEdges(all, deleted)
			cut := hub[40].Time
			var run []temporal.Edge
			for _, e := range hub {
				if e.Time > cut {
					run = append(run, e)
				}
			}
			lone := run[len(run)-1]
			if err := g.DeleteEdges(run[:len(run)-1]); err != nil {
				t.Fatal(err)
			}
			if g.NumDeleted() == 0 {
				t.Fatal("hub deletions compacted away; the fallback scan is not exercised")
			}
			sr := xrand.New(5)
			found := 0
			h := fnv.New64a()
			for i := 0; i < 200; i++ {
				dst, at, _, ok := g.SampleStep(0, cut, sr)
				if ok && (dst != lone.Dst || at != lone.Time) {
					t.Fatalf("draw %d: got %d@%d, the only live candidate is %d@%d", i, dst, at, lone.Dst, lone.Time)
				}
				if ok {
					found++
				}
				fmt.Fprint(h, dst, at, ok)
			}
			if found == 0 {
				t.Fatal("the lone live candidate was never drawn")
			}
			stage("fallback", fmt.Sprintf("%016x", h.Sum64()))
			// Deleting the lone edge too leaves no live candidate: a dead end.
			if err := g.DeleteEdges([]temporal.Edge{lone}); err != nil {
				t.Fatal(err)
			}
			if _, _, _, ok := g.SampleStep(0, cut, sr); ok {
				t.Fatal("a fully tombstoned candidate range must dead-end")
			}
			stage("delete", walkHash(g))

			g.CompactVertex(0)
			g.CompactVertex(3)
			stage("compact", walkHash(g))

			g.ExpireBefore(g.Frontier() / 3)
			stage("expire", walkHash(g))

			goldenStream(t, g, r, 25)
			g.RebuildVertex(5)
			stage("regrow", walkHash(g))

			var buf bytes.Buffer
			if err := g.WriteSnapshot(&buf, 99); err != nil {
				t.Fatal(err)
			}
			image := buf.Bytes()
			stage("snapshot", bytesHash(image))
			g2, lsn, err := ReadSnapshot(bytes.NewReader(image))
			if err != nil || lsn != 99 {
				t.Fatalf("read back: lsn %d err %v", lsn, err)
			}
			if a, b := walkHash(g), walkHash(g2); a != b {
				t.Fatalf("restored graph walks %s, the original %s", b, a)
			}
			var again bytes.Buffer
			if err := g2.WriteSnapshot(&again, 99); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), image) {
				t.Fatal("re-writing the restored graph changes the snapshot bytes")
			}

			want := golden[spec.Kind]
			if len(got) != len(want) {
				t.Fatalf("%d stages, want %d: %q", len(got), len(want), got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("stage %d: got %s, want %s", i, got[i], want[i])
				}
			}
		})
	}
}
