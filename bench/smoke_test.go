package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

func smoke(t *testing.T, o options) *Report {
	t.Helper()
	o.seed, o.smoke = 1, true
	rep, err := runWorkload(context.Background(), o, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// wantChecks is the correctness checks each workload must actually have run.
var wantChecks = map[string][]string{
	"corpus":        {"walks_verified", "checksum_pairs"},
	"serve-single":  {"walks_verified"},
	"serve-cluster": {"walks_verified", "cluster_vs_engine"},
	"ingest-walk":   {"walks_verified", "reopen_edge_count"},
}

// ownMetrics is the end-to-end metrics that belong to one workload.
var ownMetrics = map[string][]string{
	"corpus":      {"steps_per_s_n2v", "steps_per_s_ooc"},
	"ingest-walk": {"ingest_edges_per_s", "ingest_ack_p50_ms", "ingest_ack_p99_ms"},
}

// sharedMetrics is the end-to-end metrics every workload reports beyond the
// driver's list.
var sharedMetrics = []string{"steps_per_s_1t", "walk_latency_p99_ms", "peak_rss_mb"}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := smoke(t, options{workload: w.name})
			if !rep.Correct {
				t.Fatalf("not correct: %v", rep.Errors)
			}
			want := append(slices.Clone(sharedMetrics), ownMetrics[w.name]...)
			for _, d := range driverMetrics(false) {
				want = append(want, d.Name)
			}
			for _, name := range want {
				m, ok := rep.get(name)
				if !ok {
					t.Errorf("metric %s is missing", name)
				} else if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s = %v, want finite and positive", name, m.Value)
				}
			}
			for _, c := range wantChecks[w.name] {
				if rep.Checks[c] == 0 {
					t.Errorf("check %s never ran", c)
				}
			}
			if a, f := rep.totals(); a == 0 || f != 0 {
				t.Errorf("attempted %d, failed %d", a, f)
			}
			var line bytes.Buffer
			if err := printDriverLine(&line, rep); err != nil {
				t.Fatal(err)
			}
			var res map[string]json.RawMessage
			if err := json.Unmarshal(line.Bytes(), &res); err != nil || len(res) != 4 {
				t.Fatalf("driver line %q: %v", line.String(), err)
			}
		})
	}
}

// The four traced runs together must report every per-layer metric.
func TestSmokeTraceCoversEveryLayer(t *testing.T) {
	var all *Report
	for _, w := range workloads {
		rep := smoke(t, options{workload: w.name, trace: true})
		if !rep.Correct {
			t.Fatalf("%s: not correct: %v", w.name, rep.Errors)
		}
		if _, ok := rep.get("trace_overhead_pct"); !ok {
			t.Errorf("%s: trace_overhead_pct is missing", w.name)
		}
		if _, ok := rep.get("setup_s"); ok {
			t.Errorf("%s: the traced run reported an end-to-end metric", w.name)
		}
		if all == nil {
			all = rep
		} else {
			all.absorb(rep)
		}
	}
	// Differences of two noisy medians may be negative at this size.
	signed := func(name string) bool {
		return strings.HasSuffix(name, "_pct") || strings.HasSuffix(name, "self_us") || strings.HasSuffix(name, "self_ns") ||
			name == "server.encode_us" || name == "server.transport_us" || name == "ingest.decode_us"
	}
	for _, d := range driverMetrics(true) {
		m, ok := all.get(d.Name)
		switch {
		case !ok:
			t.Errorf("metric %s is missing", d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.Name, m.Value)
		case !signed(d.Name) && d.Name != "blockcache.evictions_per_kstep" && !(m.Value > 0):
			t.Errorf("metric %s = %v, want positive", d.Name, m.Value)
		}
	}
	var line bytes.Buffer
	if err := printDriverLine(&line, all); err != nil {
		t.Fatal(err)
	}
}

// A response that is not a temporal path over the generated edges must fail
// the run, not just be counted.
func TestCorruptedResponseFailsTheRun(t *testing.T) {
	for _, name := range []string{"serve-single", "serve-cluster", "ingest-walk"} {
		rep := smoke(t, options{workload: name, tamper: func(body []byte) []byte {
			return bytes.Replace(body, []byte(`"t":`), []byte(`"t":1`), 1) // a hop at a time no edge has
		}})
		if rep.Correct || len(rep.Errors) == 0 {
			t.Errorf("%s: a corrupted response went unnoticed", name)
		}
		if _, f := rep.totals(); f == 0 {
			t.Errorf("%s: the corrupted response was not counted as a failed operation", name)
		}
	}
}

func TestStepsOfReadsTheCostFigure(t *testing.T) {
	body := []byte(`{"from":3,"walks":[[{"v":3},{"v":4,"t":9}]],"cost":{"duration":"1ms","steps":"1"}}`)
	if n, err := stepsOf(body); err != nil || n != 1 {
		t.Fatalf("stepsOf = %d, %v", n, err)
	}
	if _, err := stepsOf([]byte(`{}`)); err == nil {
		t.Fatal("a body with no steps figure should be an error")
	}
	if _, _, err := decodeWalks(body, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeWalks(body, 4); err == nil {
		t.Fatal("a response with too few walks should be an error")
	}
}

// BENCHMARK.json is the driver's view of the defs table; the two must agree.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var spec struct {
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
		RunSeconds int     `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d is %q with a %d-character why", i, w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []entry, want []def, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s lists %d metrics, the table has %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d] = %+v, table says %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s[%d] %s: bound does not match the table's %v", kind, i, g.Name, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, driverMetrics(false), true)
	check("per_layer", spec.PerLayer, driverMetrics(true), false)
}
