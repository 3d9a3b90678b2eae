package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/trace"
)

// newObsCluster builds a 3-shard cluster where every shard has its own
// metrics registry and instance identity — the multi-process layout the
// observability plane is built for, minus the sockets.
func newObsCluster(t *testing.T, g *temporal.Graph, spec sampling.WeightSpec, parts int) ([]*httptest.Server, []*metrics.Registry) {
	t.Helper()
	nodes := make([]*shard.Node, parts)
	for i := 0; i < parts; i++ {
		n, err := shard.NewNode(g, spec, shard.Config{
			ShardID: i, Partitions: parts,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	caller := &shard.InProcess{Nodes: nodes}
	servers := make([]*httptest.Server, parts)
	regs := make([]*metrics.Registry, parts)
	for i := 0; i < parts; i++ {
		regs[i] = metrics.NewRegistry()
		ts := httptest.NewServer(NewShard(nodes[i], caller, Config{
			Metrics:  regs[i],
			Instance: fmt.Sprintf("shard-%d", i),
			ShardID:  i,
		}).Handler())
		t.Cleanup(ts.Close)
		servers[i] = ts
	}
	return servers, regs
}

func findCounterSnap(t *testing.T, snap *metrics.Snapshot, name string) int64 {
	t.Helper()
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q not in federated snapshot", name)
	return 0
}

// The federation invariant end to end: the router's shard="all" rollup of a
// counter equals the sum of the per-shard labeled series, which equals what
// each shard's own registry holds.
func TestFederatedMetricsRollup(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 61)
	spec := sampling.Exponential(0.01)
	servers, regs := newObsCluster(t, g, spec, 3)
	router := newShardRouter(t, servers, RouterConfig{Config: Config{Metrics: metrics.NewRegistry()}})

	const requests = 3
	for i := 0; i < requests; i++ {
		var out walkResponse
		getJSON(t, router.URL+fmt.Sprintf("/walk?from=%d&length=10&count=4&seed=%d", 7+i, i+1), http.StatusOK, &out)
	}

	var fed metrics.Snapshot
	resp, err := http.Get(router.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Cache-Control") != "no-store" {
		t.Fatalf("federated /metrics.json Cache-Control %q, want no-store", resp.Header.Get("Cache-Control"))
	}
	if err := json.NewDecoder(resp.Body).Decode(&fed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	const family = `tea_server_requests_total{endpoint="walk"`
	var perShardSum int64
	for i := range servers {
		v := findCounterSnap(t, &fed, family+`,shard="`+strconv.Itoa(i)+`"}`)
		// The federated copy must equal the shard's own registry: federation
		// relabels, it must not re-aggregate per-shard values.
		want := regs[i].Snapshot()
		if own := findCounterSnap(t, want, family+`}`); own != v {
			t.Fatalf("shard %d federated value %d != shard's own %d", i, v, own)
		}
		if v != requests { // every fan-out hits every shard once
			t.Fatalf("shard %d walk requests %d, want %d", i, v, requests)
		}
		perShardSum += v
	}
	if all := findCounterSnap(t, &fed, family+`,shard="all"}`); all != perShardSum {
		t.Fatalf(`shard="all" rollup %d != per-shard sum %d`, all, perShardSum)
	}
	// The router's own series passes through unlabeled.
	if own := findCounterSnap(t, &fed, family+`}`); own != requests {
		t.Fatalf("router's own walk requests %d, want %d", own, requests)
	}

	// The Prometheus rendering federates the same way.
	resp, err = http.Get(router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if !strings.Contains(string(text), `tea_server_requests_total{endpoint="walk",shard="all"} `+strconv.FormatInt(perShardSum, 10)) {
		t.Fatalf("prometheus exposition missing the shard=\"all\" rollup:\n%s", text)
	}
	// Build info stays per-shard: a summed build_info means nothing.
	if strings.Contains(string(text), `tea_build_info{`+`shard="all"`) {
		t.Fatal("build_info must not be rolled up")
	}
	if !strings.Contains(string(text), `instance="shard-1"`) {
		t.Fatal("per-shard build_info lost its instance label in federation")
	}
}

// A dead shard must fail the scrape loudly: 503 with Retry-After and
// no-store, never a silently partial federation.
func TestFederatedMetricsShardDown(t *testing.T) {
	g := testutil.RandomGraph(t, 60, 1200, 300, 17)
	servers, _ := newObsCluster(t, g, sampling.WeightSpec{}, 2)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	router := newShardRouter(t, []*httptest.Server{servers[0]}, RouterConfig{
		Shards: []string{dead.URL},
		Config: Config{Metrics: metrics.NewRegistry()},
	})

	for _, path := range []string{"/metrics", "/metrics.json"} {
		resp, err := http.Get(router.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s with dead shard: status %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Cache-Control") != "no-store" {
			t.Fatalf("%s 503 missing Cache-Control: no-store", path)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s 503 missing Retry-After", path)
		}
	}
}

// Cluster health rolls up shard /healthz: all ok → 200 ok; a dead shard →
// 503 degraded naming it, with Retry-After and no-store — the router never
// answers a 200 lie over a dead shard.
func TestRouterHealthRollup(t *testing.T) {
	g := testutil.RandomGraph(t, 60, 1200, 300, 19)
	servers, _ := newObsCluster(t, g, sampling.WeightSpec{}, 3)
	router := newShardRouter(t, servers, RouterConfig{Config: Config{Metrics: metrics.NewRegistry()}})

	resp, err := http.Get(router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var healthy struct {
		Status string                    `json:"status"`
		Shards map[string]map[string]any `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&healthy); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || healthy.Status != "ok" {
		t.Fatalf("healthy cluster: %d %q", resp.StatusCode, healthy.Status)
	}
	if len(healthy.Shards) != 3 {
		t.Fatalf("rollup names %d shards, want 3", len(healthy.Shards))
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	degradedRouter := newShardRouter(t, servers[:2], RouterConfig{
		Shards: []string{dead.URL},
		Config: Config{Metrics: metrics.NewRegistry()},
	})
	resp, err = http.Get(degradedRouter.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var degraded struct {
		Status string                    `json:"status"`
		Shards map[string]map[string]any `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&degraded); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || degraded.Status != "degraded" {
		t.Fatalf("dead shard: %d %q, want 503 degraded", resp.StatusCode, degraded.Status)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get("Cache-Control") != "no-store" {
		t.Fatal("degraded /healthz missing Retry-After or no-store")
	}
	// The dead shard (listed first, so id 0) is named as down; the live ones
	// keep their own bodies.
	if st, _ := degraded.Shards["0"]["status"].(string); st != "down" {
		t.Fatalf("dead shard reported %q, want down", st)
	}
	if st, _ := degraded.Shards["1"]["status"].(string); st != "ok" {
		t.Fatalf("live shard reported %q, want ok", st)
	}
}

// The per-request cost block is consistent across deployment shapes: the
// routed cluster's merged cost_detail reports the same steps and edges as a
// single process running the identical query, and its per-shard split sums
// to the total.
func TestRouterCostDetailMatchesSingleProcess(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 61)
	spec := sampling.Exponential(0.01)
	eng, err := core.NewEngine(g, core.App{Name: "test", Weight: spec}, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(New(eng).Handler())
	t.Cleanup(single.Close)
	servers, _ := newObsCluster(t, g, spec, 3)
	router := newShardRouter(t, servers, RouterConfig{Config: Config{Metrics: metrics.NewRegistry()}})

	const q = "/walk?from=7&length=20&count=6&seed=9&cost=1"
	var want, got walkResponse
	getJSON(t, single.URL+q, http.StatusOK, &want)
	getJSON(t, router.URL+q, http.StatusOK, &got)

	if want.CostDetail == nil || got.CostDetail == nil {
		t.Fatalf("cost=1 produced no cost_detail: single=%v routed=%v", want.CostDetail, got.CostDetail)
	}
	if want.CostDetail.Steps == 0 {
		t.Fatal("single-process cost_detail has zero steps")
	}
	if got.CostDetail.Steps != want.CostDetail.Steps {
		t.Fatalf("routed steps %d != single-process %d", got.CostDetail.Steps, want.CostDetail.Steps)
	}
	if got.CostDetail.EdgesEvaluated != want.CostDetail.EdgesEvaluated {
		t.Fatalf("routed edges %d != single-process %d", got.CostDetail.EdgesEvaluated, want.CostDetail.EdgesEvaluated)
	}
	if len(got.CostDetail.Shards) != 3 {
		t.Fatalf("per-shard split has %d entries, want 3", len(got.CostDetail.Shards))
	}
	var split reqcost.Cost
	for _, sc := range got.CostDetail.Shards {
		split.Add(*sc)
	}
	if split.Steps != got.CostDetail.Steps || split.EdgesEvaluated != got.CostDetail.EdgesEvaluated {
		t.Fatalf("per-shard split (%d steps, %d edges) does not sum to the total (%d, %d)",
			split.Steps, split.EdgesEvaluated, got.CostDetail.Steps, got.CostDetail.EdgesEvaluated)
	}
	if want.CostDetail.Shards != nil {
		t.Fatal("single-process cost_detail must not carry a shard split")
	}
}

// One sampled X-Request-ID yields ONE downloadable Chrome trace containing
// spans from the router and from every shard process — the cross-process
// trace assembly tentpole end to end.
func TestRouterTraceAssembly(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 61)
	spec := sampling.Exponential(0.01)
	servers, _ := newObsCluster(t, g, spec, 3)
	tracer := trace.New(trace.Config{SampleFraction: 1, Instance: "router", Shard: -1})
	router := newShardRouter(t, servers, RouterConfig{
		Config: Config{Metrics: metrics.NewRegistry(), Trace: tracer},
	})

	const reqID = "obs-e2e-trace-1"
	req, err := http.NewRequest(http.MethodGet, router.URL+"/walk?from=7&length=20&count=6&seed=9", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("walk status %d", resp.StatusCode)
	}

	resp, err = http.Get(router.URL + "/debug/tea/trace?id=" + reqID + "&format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace download status %d", resp.StatusCode)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, reqID) {
		t.Fatalf("Content-Disposition %q does not name the request", cd)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}

	// Per process: pid 1 is the router, pid shard+2 each shard. The assembled
	// trace must contain the router's fan-out and every shard's run summary.
	spansByPID := map[int][]string{}
	processNames := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" && ev.Name == "process_name" {
			processNames[ev.PID], _ = ev.Args["name"].(string)
			continue
		}
		spansByPID[ev.PID] = append(spansByPID[ev.PID], ev.Name)
	}
	if !containsStr(spansByPID[1], "server.request") || !containsStr(spansByPID[1], "router.fanout") {
		t.Fatalf("router process (pid 1) spans %v missing request/fanout", spansByPID[1])
	}
	for sh := 0; sh < 3; sh++ {
		pid := sh + 2
		if !containsStr(spansByPID[pid], "shard.run") {
			t.Fatalf("shard %d process (pid %d) contributed no shard.run span: %v", sh, pid, spansByPID[pid])
		}
		if want := fmt.Sprintf("shard-%d", sh); processNames[pid] != want {
			t.Fatalf("pid %d named %q, want %q", pid, processNames[pid], want)
		}
	}
}

func containsStr(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// The router's /debug/tea/top records the fanned request with the merged
// cluster cost, so "what was expensive" is answerable at the front door.
func TestRouterTopCarriesClusterCost(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 61)
	spec := sampling.Exponential(0.01)
	servers, _ := newObsCluster(t, g, spec, 3)
	router := newShardRouter(t, servers, RouterConfig{Config: Config{Metrics: metrics.NewRegistry()}})

	var out walkResponse
	getJSON(t, router.URL+"/walk?from=7&length=20&count=6&seed=9&cost=1", http.StatusOK, &out)

	var top struct {
		Top []reqcost.Record `json:"top"`
	}
	getJSON(t, router.URL+"/debug/tea/top", http.StatusOK, &top)
	for _, rec := range top.Top {
		if rec.Endpoint == "walk" {
			if rec.Cost.Steps != out.CostDetail.Steps {
				t.Fatalf("top record steps %d != merged cost %d", rec.Cost.Steps, out.CostDetail.Steps)
			}
			return
		}
	}
	t.Fatalf("no walk record in router top ring: %+v", top.Top)
}

// The cost ledger and the reply's own counters are one count: a routed
// cost_detail's migrations and frames equal the reply's cost, and on every
// shard the ledger's migration bytes equal its bytes_sent — walker-steps a
// peer served, not walkers sent, on walks that cross shards.
func TestCostLedgerAgreesWithReply(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 61)
	servers, _ := newObsCluster(t, g, sampling.Exponential(0.01), 3)
	router := newShardRouter(t, servers, RouterConfig{Config: Config{Metrics: metrics.NewRegistry()}})

	const q = "/walk?from=7&length=40&count=32&seed=9&cost=1"
	var routed walkResponse
	getJSON(t, router.URL+q, http.StatusOK, &routed)
	if routed.CostDetail == nil {
		t.Fatal("cost=1 produced no cost_detail")
	}
	if m := costInt(routed.Cost, "migrations"); m == 0 || routed.CostDetail.Migrations != m {
		t.Fatalf("routed cost_detail.migrations %d, cost.migrations %d: want equal and non-zero", routed.CostDetail.Migrations, m)
	}
	if f := costInt(routed.Cost, "frames"); routed.CostDetail.Frames != f {
		t.Fatalf("routed cost_detail.frames %d != cost.frames %d", routed.CostDetail.Frames, f)
	}
	for i, ts := range servers {
		var sr shardWalkResponse
		getJSON(t, ts.URL+q, http.StatusOK, &sr)
		d := sr.CostDetail
		if d == nil {
			t.Fatalf("shard %d: no cost_detail", i)
		}
		if d.Migrations != costInt(sr.Cost, "migrations") || d.Frames != costInt(sr.Cost, "frames") ||
			d.MigrationBytes != costInt(sr.Cost, "bytes_sent") {
			t.Fatalf("shard %d: cost_detail {migrations %d frames %d bytes %d} vs cost %v",
				i, d.Migrations, d.Frames, d.MigrationBytes, sr.Cost)
		}
	}
}
