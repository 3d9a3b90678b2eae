package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/temporal"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	g := temporal.CommuteGraph()
	eng, err := core.NewEngine(g, core.Unbiased(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	var out map[string]string
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &out)
	if out["status"] != "ok" {
		t.Fatalf("health: %v", out)
	}
}

func TestStats(t *testing.T) {
	ts := newTestServer(t)
	var out statsResponse
	getJSON(t, ts.URL+"/stats", http.StatusOK, &out)
	if out.Vertices != 10 || out.Edges != 10 || out.MaxDegree != 7 {
		t.Fatalf("stats: %+v", out)
	}
	if out.Sampler == "" || out.Application == "" || out.IndexBytes <= 0 {
		t.Fatalf("stats missing engine info: %+v", out)
	}
}

func TestWalkEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out walkResponse
	getJSON(t, ts.URL+"/walk?from=9&length=3&count=5&seed=2", http.StatusOK, &out)
	if out.From != 9 || len(out.Walks) != 5 {
		t.Fatalf("walk response: from=%d walks=%d", out.From, len(out.Walks))
	}
	for _, walk := range out.Walks {
		if walk[0].Vertex != 9 || walk[0].Time != nil {
			t.Fatalf("walk start wrong: %+v", walk[0])
		}
		var last int64 = -1 << 62
		for _, hop := range walk[1:] {
			if hop.Time == nil {
				t.Fatal("missing hop time")
			}
			if *hop.Time <= last {
				t.Fatalf("non-increasing times in %+v", walk)
			}
			last = *hop.Time
		}
	}
	if out.Cost["steps"] == "" {
		t.Fatal("missing cost")
	}
}

func TestWalkDeterministicAcrossRequests(t *testing.T) {
	ts := newTestServer(t)
	var a, b walkResponse
	getJSON(t, ts.URL+"/walk?from=8&length=4&count=3&seed=7", http.StatusOK, &a)
	getJSON(t, ts.URL+"/walk?from=8&length=4&count=3&seed=7", http.StatusOK, &b)
	aj, _ := json.Marshal(a.Walks)
	bj, _ := json.Marshal(b.Walks)
	if string(aj) != string(bj) {
		t.Fatal("same seed produced different walks")
	}
}

func TestWalkValidation(t *testing.T) {
	ts := newTestServer(t)
	for _, q := range []string{
		"/walk",                     // missing from
		"/walk?from=99",             // out of range
		"/walk?from=x",              // unparsable
		"/walk?from=1&length=0",     // bad length
		"/walk?from=1&count=999999", // over limit
	} {
		var out map[string]string
		getJSON(t, ts.URL+q, http.StatusBadRequest, &out)
		if out["error"] == "" {
			t.Fatalf("%s: no error message", q)
		}
	}
}

func TestPPREndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out pprResponse
	getJSON(t, ts.URL+"/ppr?from=9&walks=5000&topk=3&seed=4", http.StatusOK, &out)
	if out.From != 9 || len(out.Scores) == 0 || len(out.Scores) > 3 {
		t.Fatalf("ppr: %+v", out)
	}
	if out.Scores[0].Vertex != 9 {
		t.Fatalf("ppr top = %d, want source", out.Scores[0].Vertex)
	}
	var bad map[string]string
	getJSON(t, ts.URL+"/ppr?from=9&walks=0", http.StatusBadRequest, &bad)
}

func TestReachEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out reachResponse
	getJSON(t, ts.URL+"/reach?from=9", http.StatusOK, &out)
	want := []temporal.Vertex{4, 5, 6, 7}
	if out.Count != 4 || len(out.Reachable) != 4 {
		t.Fatalf("reach: %+v", out)
	}
	for i, v := range want {
		if out.Reachable[i] != v {
			t.Fatalf("reach set %v, want %v", out.Reachable, want)
		}
	}
	// With after=4 the 9->7 edge is gone.
	getJSON(t, ts.URL+"/reach?from=9&after=4", http.StatusOK, &out)
	if out.Count != 0 {
		t.Fatalf("reach after=4: %+v", out)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/walk?from=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
}

// An engine run bills the request's cost ledger itself, so /ppr, which
// replies without a cost block, shows its steps in /debug/tea/top.
func TestPPRRecordsCost(t *testing.T) {
	ts := newTestServer(t)
	getJSON(t, ts.URL+"/ppr?from=9&walks=100&seed=3", http.StatusOK, nil)
	var top struct {
		Top []reqcost.Record `json:"top"`
	}
	getJSON(t, ts.URL+"/debug/tea/top", http.StatusOK, &top)
	for _, rec := range top.Top {
		if rec.Endpoint == "ppr" {
			if rec.Cost.Steps == 0 || rec.Cost.Walks != 100 {
				t.Fatalf("ppr top record steps %d walks %d, want steps > 0 and 100 walks", rec.Cost.Steps, rec.Cost.Walks)
			}
			return
		}
	}
	t.Fatalf("no ppr record in the top ring: %+v", top.Top)
}
