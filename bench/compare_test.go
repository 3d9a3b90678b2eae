package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/tea-graph/tea/bench/measure"
)

func summaryOf(v, p25, p75 float64) measure.Summary {
	return measure.Summary{Median: v, P25: p25, P75: p75, N: 20}
}

// doc builds a one-workload document reporting steps_per_s (higher is better,
// bound 25 %) and the exact index_bytes_per_edge.
func doc(seed uint64, stepsPerS, p25, p75, bytesPerEdge float64) Document {
	rep := Report{Workload: "corpus", Env: Env{Seed: seed}}
	rep.put("steps_per_s", summaryOf(stepsPerS, p25, p75), nil)
	rep.value("index_bytes_per_edge", bytesPerEdge, nil)
	return Document{Schema: schema, Workloads: []Report{rep}}
}

func verdicts(rows []Row) map[string]string {
	out := map[string]string{}
	for _, r := range rows {
		out[r.Metric.Name] = r.Verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	base := Set{Runs: []Document{doc(1, 100, 99, 101, 50)}}
	for _, c := range []struct {
		name string
		b    Document
		want string
	}{
		{"within the bound", doc(1, 95, 94, 96, 50), verdictOK},
		{"faster is never worse", doc(1, 150, 149, 151, 50), verdictOK},
		{"slower than the bound allows", doc(1, 70, 69, 71, 50), verdictWorse},
		{"windows spread wider than the bound", doc(1, 98, 70, 115, 50), verdictUnresolved},
	} {
		got := verdicts(compareSets(base, Set{Runs: []Document{c.b}}))
		if got["steps_per_s"] != c.want || got["index_bytes_per_edge"] != verdictOK {
			t.Errorf("%s: verdicts %v, want steps_per_s %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsAnExactCountThatDoesNotRepeat(t *testing.T) {
	a := Set{Runs: []Document{doc(1, 100, 99, 101, 50)}}
	rows := compareSets(a, Set{Runs: []Document{doc(1, 100, 99, 101, 50.000001)}})
	if got := verdicts(rows)["index_bytes_per_edge"]; got != verdictNondet {
		t.Errorf("same seed, different count: verdict %q", got)
	}
	if verdictError(rows) == nil {
		t.Error("a count that does not repeat should fail the comparison")
	}
	rows = compareSets(a, Set{Runs: []Document{doc(2, 100, 99, 101, 51)}})
	if got := verdicts(rows)["index_bytes_per_edge"]; got == verdictNondet {
		t.Error("different seeds may give different counts")
	}
}

func TestCompareUsesRunToRunSpreadWhenThereAreRuns(t *testing.T) {
	// Tight windows inside each run, but the runs themselves disagree.
	a := Set{Runs: []Document{doc(1, 60, 59, 61, 50), doc(1, 100, 99, 101, 50), doc(1, 140, 139, 141, 50)}}
	rows := compareSets(a, a)
	if got := verdicts(rows)["steps_per_s"]; got != verdictUnresolved {
		t.Errorf("verdict %q, want unresolved", got)
	}
	var out bytes.Buffer
	writeTable(&out, rows)
	if !strings.Contains(out.String(), "| corpus | steps_per_s | steps/s |") {
		t.Errorf("table:\n%s", out.String())
	}
}
