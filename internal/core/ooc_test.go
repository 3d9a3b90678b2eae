package core_test

import (
	"errors"
	"fmt"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/ooc"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/testutil"
)

// Tests of core over the disk-backed samplers live in package core_test:
// ooc builds its engine on core, so an in-package test importing ooc would
// be an import cycle.

func TestBatchKernelMatchesScalarOOC(t *testing.T) {
	g := testutil.RandomGraph(t, 150, 5000, 20000, 37)
	w := testutil.Weights(t, g, sampling.WeightSpec{Kind: sampling.WeightLinearTime})

	store, err := ooc.NewTempStore()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	dpat, err := ooc.BuildDiskPAT(w, store, 4)
	if err != nil {
		t.Fatal(err)
	}

	store2, err := ooc.NewTempStore()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store2.Close() })
	dgw, err := ooc.BuildDiskGraphWalker(g, sampling.WeightSpec{Kind: sampling.WeightLinearTime}, store2)
	if err != nil {
		t.Fatal(err)
	}

	samplers := []struct {
		name string
		s    core.Sampler
	}{
		{"diskpat", dpat},
		{"diskgw", dgw},
	}
	for _, sc := range samplers {
		if _, ok := sc.s.(core.BatchSampler); !ok {
			t.Fatalf("%s does not implement BatchSampler", sc.name)
		}
		if fg, ok := sc.s.(core.FrontierGrouper); !ok || !fg.WantsGroupedFrontier() {
			t.Fatalf("%s should want a grouped frontier", sc.name)
		}
		eng, err := core.NewEngine(g, core.LinearTime(), core.Options{ExternalSampler: sc.s})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4} {
			core.RunBothKernels(t, fmt.Sprintf("%s/t%d", sc.name, threads), eng, core.WalkConfig{
				WalksPerVertex: 3,
				Length:         15,
				Seed:           555,
				Threads:        threads,
			})
		}
	}
}

// A dead device is not a dead end: over a store whose every read fails
// permanently, both kernels stop with the sampler's sticky error instead of
// reporting a successful run of zero-step walks.
func TestDeadDeviceStopsTheRun(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 1000, 5)
	w := testutil.Weights(t, g, sampling.WeightSpec{})
	store, err := ooc.NewTempStore()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	fi := ooc.NewFaultInjector(store, fault.New(3, fault.Fault{Op: fault.Read}))
	d, err := ooc.BuildDiskPAT(w, fi, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g, core.LinearTime(), core.Options{ExternalSampler: d})
	if err != nil {
		t.Fatal(err)
	}
	for _, kern := range []core.Kernel{core.KernelScalar, core.KernelBatch} {
		res, err := eng.Run(core.WalkConfig{WalksPerVertex: 10, Length: 20, Seed: 1, Threads: 2, Kernel: kern})
		if !errors.Is(err, ooc.ErrInjected) {
			t.Fatalf("%v: err = %v, want ErrInjected", kern, err)
		}
		if res.Cost.WalksStarted == int64(10*g.NumVertices()) {
			t.Fatalf("%v: run went on to start every walk after the device died", kern)
		}
	}
}
