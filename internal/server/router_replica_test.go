package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/trace"
)

// deadURL binds and closes a listener so the URL refuses connections.
func deadURL(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	return ts.URL
}

// The replica acceptance criterion at the HTTP layer: with one replica of a
// partition dead, every /walk still answers 200 with the same bytes as a
// healthy cluster — the failover is invisible to clients. Once the dead
// replica's breaker opens, the surviving replica is preferred outright and
// the failover counter stops moving.
func TestRouterReplicaFailoverKeepsServing(t *testing.T) {
	g := testutil.RandomGraph(t, 80, 2000, 400, 91)
	spec := sampling.Exponential(0.01)
	servers := newShardCluster(t, g, spec, 2, Config{}, nil)
	reference := newShardRouter(t, servers, RouterConfig{})

	// Partition 0 is served by a dead primary and a live sibling. The dead
	// URL comes first so the initial attempts must fail over.
	reg := metrics.NewRegistry()
	rt, err := NewRouter(RouterConfig{
		Shards:  []string{deadURL(t) + "|" + servers[0].URL, servers[1].URL},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	const q = "/walk?from=7&length=15&count=4&seed=3"
	var want walkResponse
	getJSON(t, reference.URL+q, http.StatusOK, &want)
	wantJSON, _ := json.Marshal(want.Walks)

	for i := 0; i < 6; i++ {
		var got walkResponse
		getJSON(t, ts.URL+q, http.StatusOK, &got) // any non-200 fails here: zero 5xx
		if gotJSON, _ := json.Marshal(got.Walks); string(gotJSON) != string(wantJSON) {
			t.Fatalf("request %d: replica failover changed the response\nwant %s\ngot  %s", i, wantJSON, gotJSON)
		}
	}

	failovers := reg.Counter(`tea_router_replica_failovers_total{shard="0"}`).Value()
	if failovers == 0 {
		t.Fatal("dead primary never recorded a failover")
	}
	// The very first failure demotes the dead replica behind its healthy
	// sibling, so later requests go straight to the survivor and stop paying
	// the failover detour.
	for i := 0; i < 3; i++ {
		getJSON(t, ts.URL+q, http.StatusOK, nil)
	}
	if after := reg.Counter(`tea_router_replica_failovers_total{shard="0"}`).Value(); after != failovers {
		t.Fatalf("failovers kept accruing after the replica was demoted: %d -> %d", failovers, after)
	}
}

// Only a whole partition down — every replica unreachable — may surface as
// 503, and it must carry Retry-After.
func TestRouterAllReplicasDown(t *testing.T) {
	g := testutil.RandomGraph(t, 50, 1000, 300, 92)
	servers := newShardCluster(t, g, sampling.WeightSpec{}, 2, Config{}, nil)
	rt, err := NewRouter(RouterConfig{
		Shards: []string{servers[0].URL, deadURL(t) + "|" + deadURL(t)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	for _, path := range []string{"/walk?from=1&length=5&count=2&seed=1", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: 503 without Retry-After", path)
		}
	}
}

// /readyz and /healthz expose the per-partition replica table: a failing
// replica shows up demoted (suspect — one failure is enough to deprioritize
// it, so it never reaches the open threshold while a sibling serves) with its
// error count attached, and the healthy sibling shows up healthy.
func TestRouterReplicaTopologyReporting(t *testing.T) {
	g := testutil.RandomGraph(t, 50, 1000, 300, 93)
	servers := newShardCluster(t, g, sampling.WeightSpec{}, 2, Config{}, nil)
	dead := deadURL(t)
	rt, err := NewRouter(RouterConfig{
		Shards: []string{dead + "|" + servers[0].URL, servers[1].URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	// One request is enough: its first attempt fails on the dead primary and
	// marks it suspect.
	for i := 0; i < 4; i++ {
		getJSON(t, ts.URL+"/walk?from=1&length=5&count=2&seed=1", http.StatusOK, nil)
	}

	type topo struct {
		Replicas map[string][]replicaRow `json:"replicas"`
	}
	for _, path := range []string{"/readyz", "/healthz"} {
		var out topo
		getJSON(t, ts.URL+path, http.StatusOK, &out)
		if len(out.Replicas) != 2 {
			t.Fatalf("%s: replica table covers %d partitions, want 2", path, len(out.Replicas))
		}
		if n := len(out.Replicas["0"]); n != 2 {
			t.Fatalf("%s: partition 0 lists %d replicas, want 2", path, n)
		}
		byURL := map[string]replicaRow{}
		for _, r := range out.Replicas["0"] {
			byURL[r.URL] = r
		}
		if st := byURL[dead]; st.State != "suspect" || st.Errors == 0 {
			t.Fatalf("%s: dead replica reported %+v, want suspect with errors", path, st)
		}
		if st := byURL[servers[0].URL]; st.State != "healthy" || st.OK == 0 {
			t.Fatalf("%s: live replica reported %+v, want healthy with successes", path, st)
		}
	}
}

// A failover shows up as a router.failover span on the request's timeline,
// naming the replica it abandoned and the one it chose.
func TestRouterFailoverTraceSpan(t *testing.T) {
	g := testutil.RandomGraph(t, 50, 1000, 300, 94)
	servers := newShardCluster(t, g, sampling.WeightSpec{}, 1, Config{}, nil)
	tracer := trace.New(trace.Config{SampleFraction: 1, MaxTraces: 16, MaxSpansPerTrace: 256})
	rt, err := NewRouter(RouterConfig{
		Shards: []string{deadURL(t) + "|" + servers[0].URL},
		Trace:  tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	const reqID = "req-replica-failover-1"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/walk?from=3&length=8&count=2&seed=5", nil)
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	spans, _, ok := tracer.Trace(reqID)
	if !ok {
		t.Fatal("no trace recorded under the request id")
	}
	for _, sp := range spans {
		if sp.Name == "router.failover" {
			return
		}
	}
	t.Fatalf("trace has no router.failover span: %+v", spans)
}

// Metrics federation keeps its shard="<id>" labels when a partition's
// preferred replica dies: the scrape fails over like any other fan.
func TestFederationSurvivesReplicaOutage(t *testing.T) {
	g := testutil.RandomGraph(t, 60, 1200, 300, 95)
	servers := newShardCluster(t, g, sampling.WeightSpec{}, 2, Config{}, nil)
	rt, err := NewRouter(RouterConfig{
		Shards:  []string{deadURL(t) + "|" + servers[0].URL, servers[1].URL},
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	getJSON(t, ts.URL+"/walk?from=2&length=5&count=2&seed=1", http.StatusOK, nil)

	var fed metrics.Snapshot
	getJSON(t, ts.URL+"/metrics.json", http.StatusOK, &fed)
	want := []string{
		`tea_server_requests_total{endpoint="walk",shard="0"}`,
		`tea_server_requests_total{endpoint="walk",shard="1"}`,
		`tea_server_requests_total{endpoint="walk",shard="all"}`,
		`tea_router_replica_failovers_total{shard="0"}`,
	}
	for _, name := range want {
		findCounterSnap(t, &fed, name)
	}
}
