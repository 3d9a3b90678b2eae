package stream

import (
	"bytes"
	"math/bits"
	"testing"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// mutationVerts is the vertex space of FuzzStreamMutations: small, so that
// deletions, compactions and rebuilds keep landing on the same vertices.
const mutationVerts = 8

// FuzzStreamMutations runs a seeded mix of AppendBatch, DeleteEdges,
// ExpireBefore, CompactVertex and RebuildVertex against a shadow set of
// live edges. After every operation the graph must agree with the shadow:
// its live-edge, degree and tombstone counts, every draw (a live edge
// later than the arrival time), every dead end (exactly when no such edge
// is live), and the walks of its snapshot round trip.
func FuzzStreamMutations(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed), uint8(40))
	}
	f.Fuzz(func(t *testing.T, seed uint64, kind, ops uint8) {
		spec := []sampling.WeightSpec{
			{Kind: sampling.WeightUniform},
			{Kind: sampling.WeightLinearTime},
			{Kind: sampling.WeightLinearRank},
			sampling.Exponential(0.01),
		}[kind%4]
		g := mustNew(t, Config{Weight: spec})
		r := xrand.New(seed)
		shadow := make([][]temporal.Edge, mutationVerts) // live edges by source
		next := temporal.Time(1)
		for op := 0; op < int(ops%64)+1; op++ {
			u := temporal.Vertex(r.IntN(mutationVerts))
			var what string
			switch k := r.IntN(10); {
			case k < 4:
				what = "append"
				batch := make([]temporal.Edge, 1+r.IntN(24))
				for i := range batch {
					e := temporal.Edge{Src: temporal.Vertex(r.IntN(mutationVerts)), Dst: temporal.Vertex(r.IntN(mutationVerts)), Time: next + temporal.Time(r.IntN(4))}
					batch[i] = e
					shadow[e.Src] = append(shadow[e.Src], e)
				}
				next += 4
				if err := g.AppendBatch(batch); err != nil {
					t.Fatalf("op %d: append: %v", op, err)
				}
			case k < 7:
				what = "delete"
				var del []temporal.Edge
				for i := 0; i < 1+r.IntN(4); i++ {
					v := r.IntN(mutationVerts)
					if len(shadow[v]) == 0 {
						continue
					}
					j := r.IntN(len(shadow[v]))
					del = append(del, shadow[v][j])
					shadow[v] = append(shadow[v][:j], shadow[v][j+1:]...)
				}
				if err := g.DeleteEdges(del); err != nil {
					t.Fatalf("op %d: delete %v: %v", op, del, err)
				}
			case k == 7:
				what = "expire"
				horizon := 1 + temporal.Time(r.IntN(int(next)))
				want := 0
				for v := range shadow {
					kept := shadow[v][:0]
					for _, e := range shadow[v] {
						if e.Time >= horizon {
							kept = append(kept, e)
						} else {
							want++
						}
					}
					shadow[v] = kept
				}
				if got := g.ExpireBefore(horizon); got != want {
					t.Fatalf("op %d: ExpireBefore(%d) dropped %d, the shadow %d", op, horizon, got, want)
				}
			case k == 8:
				what = "compact"
				g.CompactVertex(u)
			default:
				what = "rebuild"
				g.RebuildVertex(u)
			}
			checkAgainstShadow(t, g, shadow, next, r, op, what)
		}
	})
}

// checkAgainstShadow asserts that g holds exactly the shadow's live edges.
func checkAgainstShadow(t *testing.T, g *Graph, shadow [][]temporal.Edge, next temporal.Time, r *xrand.Rand, op int, what string) {
	t.Helper()
	live := 0
	for _, es := range shadow {
		live += len(es)
	}
	if g.NumEdges() != live {
		t.Fatalf("op %d (%s): NumEdges %d, the shadow holds %d", op, what, g.NumEdges(), live)
	}
	tombs := 0
	for _, segs := range g.verts {
		for i := range segs {
			if d := segs[i].dead; d != nil {
				for _, w := range d.bits {
					tombs += bits.OnesCount64(w)
				}
			}
		}
	}
	if tombs != g.NumDeleted() {
		t.Fatalf("op %d (%s): %d tombstones set, NumDeleted %d", op, what, tombs, g.NumDeleted())
	}
	for v, es := range shadow {
		u := temporal.Vertex(v)
		if g.LiveDegree(u) != len(es) {
			t.Fatalf("op %d (%s): vertex %d LiveDegree %d, the shadow holds %d", op, what, v, g.LiveDegree(u), len(es))
		}
		for _, after := range []temporal.Time{temporal.MinTime, temporal.Time(r.IntN(int(next) + 1))} {
			later := map[temporal.Edge]bool{}
			for _, e := range es {
				if e.Time > after {
					later[e] = true
				}
			}
			for draw := 0; draw < 8; draw++ {
				dst, at, _, ok := g.SampleStep(u, after, r)
				if ok != (len(later) > 0) {
					t.Fatalf("op %d (%s): vertex %d after %d: ok %v with %d live candidates", op, what, v, after, ok, len(later))
				}
				if ok && !later[temporal.Edge{Src: u, Dst: dst, Time: at}] {
					t.Fatalf("op %d (%s): vertex %d after %d drew %d@%d, not a live candidate", op, what, v, after, dst, at)
				}
			}
		}
	}
	var image bytes.Buffer
	if err := g.WriteSnapshot(&image, uint64(op)); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadSnapshot(&image)
	if err != nil {
		t.Fatalf("op %d (%s): reading the snapshot back: %v", op, what, err)
	}
	if walkHash(back) != walkHash(g) {
		t.Fatalf("op %d (%s): the snapshot round trip walks differently", op, what)
	}
}
