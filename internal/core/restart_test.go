package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/xrand"
)

// Walks with restart: both kernels draw a walker's restart before its step's
// own draws, so they replay byte-identical walks with restart as without.
func TestBatchKernelMatchesScalarRestart(t *testing.T) {
	g := testutil.RandomGraph(t, 400, 12000, 50000, 29)
	apps := []struct {
		name string
		app  App
	}{
		{"linear", LinearTime()},
		{"node2vec", TemporalNode2Vec(0.5, 2, 1)},
	}
	for _, a := range apps {
		for _, m := range []Method{MethodHPAT, MethodPAT} {
			eng, err := NewEngine(g, a.app, Options{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			for _, alpha := range []float64{0.15, 0.5} {
				for _, threads := range []int{1, 3} {
					runBothKernels(t, fmt.Sprintf("%s/%s/a%v/t%d", a.name, m, alpha, threads), eng, WalkConfig{
						WalksPerVertex: 3,
						Length:         20,
						Seed:           1234,
						Threads:        threads,
						restart:        alpha,
					})
				}
			}
		}
	}
}

// A restart rate of 0 draws nothing: RunRestart replays RunContext's walks.
func TestRunRestartZeroIsRunContext(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 5000, 17)
	eng, err := NewEngine(g, TemporalNode2Vec(0.5, 2, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kern := range []Kernel{KernelScalar, KernelBatch} {
		cfg := WalkConfig{WalksPerVertex: 8, Length: 20, Seed: 5, Threads: 2, Kernel: kern, KeepPaths: true}
		want, err := eng.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.RunRestart(context.Background(), cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != want.Cost {
			t.Fatalf("%v: cost differs\nrestart 0  %+v\nrunContext %+v", kern, got.Cost, want.Cost)
		}
		assertSameHistogram(t, kern.String(), cfg.Length, got.Lengths, want.Lengths)
		assertSamePaths(t, kern.String(), got.Paths, want.Paths)
	}
}

// On a chain no walk dead-ends before its length, so every walk completes,
// restarted or not. A walk ends at length 0 exactly when the first draw of
// its stream is below the restart rate.
func TestRestartedWalksComplete(t *testing.T) {
	const (
		walks  = 2000
		alpha  = 0.3
		length = 20
		seed   = 11
	)
	eng, err := NewEngine(chainGraph(t, length+2), Unbiased(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	root := xrand.New(seed)
	var atZero int64
	for wi := range walks {
		if root.Split(uint64(wi)).Float64() < alpha {
			atZero++
		}
	}
	for _, kern := range []Kernel{KernelScalar, KernelBatch} {
		res, err := eng.RunRestart(context.Background(), WalkConfig{
			StartVertices:  []temporal.Vertex{0},
			WalksPerVertex: walks,
			Length:         length,
			Seed:           seed,
			Threads:        3,
			Kernel:         kern,
		}, alpha)
		if err != nil {
			t.Fatal(err)
		}
		assertWalkInvariant(t, kern.String(), res.Cost)
		if res.Cost.WalksCompleted != walks {
			t.Fatalf("%v: %d of %d walks completed: %+v", kern, res.Cost.WalksCompleted, walks, res.Cost)
		}
		if n := res.Lengths.Count(0); n != atZero {
			t.Fatalf("%v: %d walks restarted before their first step, want %d", kern, n, atZero)
		}
		if res.Lengths.Count(length) == walks {
			t.Fatalf("%v: no walk restarted", kern)
		}
	}
}
