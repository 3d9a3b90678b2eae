package baseline_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/tea-graph/tea/internal/baseline"
	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/ooc"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
)

// fingerprintSpecs are the weights every sampler below is pinned on: the
// four built-in kinds, with exponential at an explicit λ and at the 0 → 1
// default.
var fingerprintSpecs = []struct {
	name string
	spec sampling.WeightSpec
}{
	{"uniform", sampling.WeightSpec{Kind: sampling.WeightUniform}},
	{"linear-time", sampling.WeightSpec{Kind: sampling.WeightLinearTime}},
	{"linear-rank", sampling.WeightSpec{Kind: sampling.WeightLinearRank}},
	{"exp-0.01", sampling.Exponential(0.01)},
	{"exp-default", sampling.Exponential(0)},
}

// samplerFingerprint hashes 2,000 seeded walks (10 per vertex) run through
// the engine with s plugged in, every kernel: each path's vertices and
// times, then the run's step and evaluated-edge counts, then s's
// MemoryBytes.
func samplerFingerprint(t *testing.T, g *temporal.Graph, spec sampling.WeightSpec, s core.Sampler) string {
	t.Helper()
	eng, err := core.NewEngine(g, core.App{Name: "fingerprint", Weight: spec}, core.Options{ExternalSampler: s, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, kernel := range []core.Kernel{core.KernelScalar, core.KernelBatch} {
		res, err := eng.Run(core.WalkConfig{WalksPerVertex: 10, Length: 20, Seed: 17, KeepPaths: true, Threads: 2, Kernel: kernel})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Paths) != 2000 {
			t.Fatalf("%d paths, want 2000", len(res.Paths))
		}
		for _, p := range res.Paths {
			for i, v := range p.Vertices {
				fmt.Fprintf(h, "%d,", v)
				if i > 0 {
					fmt.Fprintf(h, "@%d;", p.Times[i-1])
				}
			}
			fmt.Fprint(h, "|")
		}
		fmt.Fprintf(h, "steps=%d,evaluated=%d#", res.Cost.Steps, res.Cost.EdgesEvaluated)
	}
	fmt.Fprintf(h, "memory=%d", s.MemoryBytes())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSamplerFingerprints pins the draws and evaluated-edge counts of the
// samplers no engine golden covers — the in-memory baselines, plain ITS
// behind ExternalSampler, and the out-of-core GraphWalker — on every weight
// kind each accepts. A change to any weight formula, alias construction,
// ITS search or footprint moves at least one of them.
func TestSamplerFingerprints(t *testing.T) {
	g := testutil.RandomGraph(t, 200, 5000, 1000, 11)
	want := map[string]string{
		"AliasFull/exp-0.01":          "0a83be6c38eec7eb",
		"AliasFull/exp-default":       "cdd38eab605b0cbb",
		"AliasFull/linear-rank":       "28b3dcf4a74cca51",
		"AliasFull/linear-time":       "3e2eff3582b1e039",
		"AliasFull/uniform":           "5b58ffa66fae7d19",
		"CTDNE/exp-0.01":              "c1b3bee59ca5d1b1",
		"CTDNE/exp-default":           "2b7c9c4d8903ac73",
		"CTDNE/linear-rank":           "2eccf2b9127283d5",
		"CTDNE/linear-time":           "598b3e031b8c01c5",
		"CTDNE/uniform":               "74e70e3b63cba6bf",
		"DiskGraphWalker/exp-0.01":    "6b1f1f1f210adee0",
		"DiskGraphWalker/exp-default": "3d11720dd475f196",
		"DiskGraphWalker/linear-rank": "f6dbdff6cb9ded84",
		"DiskGraphWalker/linear-time": "aa0e644ab5d2da24",
		"DiskGraphWalker/uniform":     "db94888262418b52",
		"GraphWalker/exp-0.01":        "baa0a9871ec0b08e",
		"GraphWalker/exp-default":     "bbd059f7cd0f1072",
		"GraphWalker/linear-rank":     "df445f5176ab5476",
		"GraphWalker/linear-time":     "51027edb1ebfeeaa",
		"GraphWalker/uniform":         "ff5b6c9e1ffba40c",
		"ITS/exp-0.01":                "5b54d533d8e7f5ba",
		"ITS/exp-default":             "b9917280af851d2e",
		"ITS/linear-rank":             "abde23b24824eb7a",
		"ITS/linear-time":             "81be3ea56823c6a6",
		"ITS/uniform":                 "ac4214b22adc9af0",
		"KnightKing/exp-0.01":         "9c93f95fa1e5bd9b",
		"KnightKing/exp-default":      "12c601c4b9fe14e1",
		"KnightKing/linear-rank":      "df445f5176ab5476",
		"KnightKing/linear-time":      "51027edb1ebfeeaa",
		"KnightKing/uniform":          "ff5b6c9e1ffba40c",
	}
	got := map[string]string{}
	for _, ws := range fingerprintSpecs {
		spec := ws.spec
		w := testutil.Weights(t, g, spec)
		builds := map[string]func() (core.Sampler, error){
			"GraphWalker": func() (core.Sampler, error) { return baseline.NewGraphWalker(g, spec) },
			"KnightKing":  func() (core.Sampler, error) { return baseline.NewKnightKing(g, spec) },
			"CTDNE":       func() (core.Sampler, error) { return baseline.NewCTDNE(g, spec) },
			"AliasFull":   func() (core.Sampler, error) { return baseline.NewAliasFull(w, 0, 2) },
			"ITS":         func() (core.Sampler, error) { return core.NewITSSampler(w), nil },
			"DiskGraphWalker": func() (core.Sampler, error) {
				store, err := ooc.NewTempStore()
				if err != nil {
					return nil, err
				}
				t.Cleanup(func() { _ = store.Close() })
				return ooc.BuildDiskGraphWalker(g, spec, store)
			},
		}
		for name, build := range builds {
			s, err := build()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, ws.name, err)
			}
			got[name+"/"+ws.name] = samplerFingerprint(t, g, spec, s)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d fingerprints, want %d", len(got), len(want))
	}
	for key, fp := range got {
		if want[key] != fp {
			t.Errorf("%s fingerprint = %q, want %q", key, fp, want[key])
		}
	}
}
