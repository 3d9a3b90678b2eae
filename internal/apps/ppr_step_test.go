package apps

import (
	"errors"
	"sync/atomic"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/ooc"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
)

// PPR walks take the engine's step, so a second-order app's β is applied
// to every proposal after the first hop, as in engine walks.
func TestTemporalPPRAppliesParameter(t *testing.T) {
	g := testutil.RandomGraph(t, 200, 6000, 1000, 7)
	var calls atomic.Int64
	app := core.App{
		Name:   "counting",
		Weight: sampling.WeightSpec{Kind: sampling.WeightLinearTime},
		Parameter: func(_ *temporal.Graph, prev, cand temporal.Vertex) float64 {
			calls.Add(1)
			return 1
		},
		MaxParameter: 1,
	}
	eng, err := core.NewEngine(g, app, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(core.WalkConfig{StartVertices: []temporal.Vertex{3}, WalksPerVertex: 100, Length: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	engineCalls := calls.Swap(0)
	if engineCalls == 0 || res.Cost.Trials != engineCalls {
		t.Fatalf("engine walks called β %d times over %d trials", engineCalls, res.Cost.Trials)
	}
	if _, err := TemporalPPR(eng, 3, PPRConfig{Walks: 2000, Seed: 2, Alpha: 0.2}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("2,000 PPR walks never called the app's β")
	}
}

// A dead device is not a dead end: PPR over a disk sampler whose reads
// fail stops with the sampler's sticky error instead of scoring walks that
// the failed reads cut short.
func TestTemporalPPRStopsOnDeadDevice(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 1000, 5)
	w := testutil.Weights(t, g, sampling.WeightSpec{})
	store, err := ooc.NewTempStore()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	d, err := ooc.BuildDiskPAT(w, ooc.NewFaultInjector(store, fault.New(3, fault.Fault{Op: fault.Read})), 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g, core.Unbiased(), core.Options{ExternalSampler: d})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := TemporalPPR(eng, 3, PPRConfig{Walks: 500, Seed: 4, Threads: 2})
	if !errors.Is(err, ooc.ErrInjected) {
		t.Fatalf("err = %v (%d scores), want ErrInjected", err, len(scores))
	}
}
