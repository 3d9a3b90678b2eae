package core

import (
	"testing"

	"github.com/tea-graph/tea/internal/stats"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/xrand"
)

// rejectAll is an app whose Dynamic_parameter rejects every proposal, so
// every step after a walk's first runs into the trial cap and force-accepts.
func rejectAll() App {
	return App{
		Name:         "reject-all",
		Weight:       Unbiased().Weight,
		Parameter:    func(*temporal.Graph, temporal.Vertex, temporal.Vertex) float64 { return -1 },
		MaxParameter: 1,
	}
}

func TestTrialCapForceAccepts(t *testing.T) {
	g := testutil.RandomGraph(t, 60, 900, 300, 5)
	eng, err := NewEngine(g, rejectAll(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := WalkConfig{Length: 4, Seed: 9, Threads: 2}
	runBothKernels(t, "reject-all", eng, cfg)

	cfg.KeepPaths, cfg.Kernel = true, KernelScalar
	res, err := eng.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var later int64 // steps taken after each walk's first
	for wi, p := range res.Paths {
		for i := 1; i < len(p.Times); i++ {
			if p.Times[i] <= p.Times[i-1] {
				t.Fatalf("walk %d: non-increasing times %v", wi, p.Times)
			}
		}
		for i := 0; i+1 < len(p.Vertices); i++ {
			if !g.HasNeighbor(p.Vertices[i], p.Vertices[i+1]) {
				t.Fatalf("walk %d uses non-edge %d->%d", wi, p.Vertices[i], p.Vertices[i+1])
			}
		}
		if len(p.Times) > 1 {
			later += int64(len(p.Times) - 1)
		}
	}
	if later == 0 {
		t.Fatal("no walk took a second step; the cap was never reached")
	}
	if want := betaTrialCap * later; res.Cost.Trials != want || res.Cost.Rejected != want {
		t.Fatalf("trials %d, rejected %d, want both %d (cap %d × %d later steps)",
			res.Cost.Trials, res.Cost.Rejected, want, betaTrialCap, later)
	}
}

// Step is the walk loop's step: a caller that carries a walker's stream and
// clock from one Step to the next replays the engine's seeded walks and cost.
func TestStepReplaysRun(t *testing.T) {
	g := testutil.RandomGraph(t, 200, 6000, 1000, 3)
	eng, err := NewEngine(g, TemporalNode2Vec(0.5, 2, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const length, seed = 20, 77
	res, err := eng.Run(WalkConfig{Length: length, Seed: seed, Threads: 1, KeepPaths: true, Kernel: KernelScalar})
	if err != nil {
		t.Fatal(err)
	}
	root := xrand.New(seed)
	var c stats.Cost
	for wi, want := range res.Paths {
		var r xrand.Rand
		root.SplitTo(uint64(wi), &r)
		u := temporal.Vertex(wi)
		var prev temporal.Vertex
		k := g.CandidateCount(u, temporal.MinTime)
		got := []temporal.Vertex{u}
		for len(got) <= length && k > 0 {
			edgeIdx, dst, _, ok := eng.Step(u, k, prev, len(got) > 1, &r, &c)
			if !ok {
				break
			}
			c.Steps++
			got = append(got, dst)
			k = g.CandidateCountAfterEdge(u, edgeIdx)
			prev, u = u, dst
		}
		if len(got) != len(want.Vertices) {
			t.Fatalf("walk %d: %d vertices via Step, %d via Run", wi, len(got), len(want.Vertices))
		}
		for i := range got {
			if got[i] != want.Vertices[i] {
				t.Fatalf("walk %d vertex %d: %d via Step, %d via Run", wi, i, got[i], want.Vertices[i])
			}
		}
	}
	if c.Steps != res.Cost.Steps || c.EdgesEvaluated != res.Cost.EdgesEvaluated ||
		c.Trials != res.Cost.Trials || c.Rejected != res.Cost.Rejected {
		t.Fatalf("Step cost %+v, Run cost %+v", c, res.Cost)
	}
}
