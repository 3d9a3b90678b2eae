package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/trace"
)

// newShardCluster builds one ShardServer per partition over in-process step
// calls and returns their test servers (indexed by shard id) plus the nodes.
func newShardCluster(t *testing.T, g *temporal.Graph, spec sampling.WeightSpec, parts int, cfg Config, tracers []*trace.Tracer) []*httptest.Server {
	t.Helper()
	nodes := make([]*shard.Node, parts)
	for i := 0; i < parts; i++ {
		var tr *trace.Tracer
		if tracers != nil {
			tr = tracers[i]
		}
		n, err := shard.NewNode(g, spec, shard.Config{
			ShardID: i, Partitions: parts, Tracer: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	caller := &shard.InProcess{Nodes: nodes}
	servers := make([]*httptest.Server, parts)
	for i := 0; i < parts; i++ {
		shardCfg := cfg
		if tracers != nil {
			shardCfg.Trace = tracers[i]
		}
		ts := httptest.NewServer(NewShard(nodes[i], caller, shardCfg).Handler())
		t.Cleanup(ts.Close)
		servers[i] = ts
	}
	return servers
}

func newShardRouter(t *testing.T, servers []*httptest.Server, cfg RouterConfig) *httptest.Server {
	t.Helper()
	for _, ts := range servers {
		cfg.Shards = append(cfg.Shards, ts.URL)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// The tentpole's end-to-end oracle at the HTTP layer: a routed 3-shard
// cluster answers /walk byte-identically (in the walks payload) to one
// single-process teaserve over the same graph, seed for seed.
func TestRouterMatchesSingleProcess(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 61)
	spec := sampling.Exponential(0.01)
	eng, err := core.NewEngine(g, core.App{Name: "test", Weight: spec}, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(New(eng).Handler())
	t.Cleanup(single.Close)

	servers := newShardCluster(t, g, spec, 3, Config{}, nil)
	router := newShardRouter(t, servers, RouterConfig{})

	for _, q := range []string{
		"/walk?from=7&length=20&count=6&seed=9",
		"/walk?from=42&length=15&count=4&seed=1",
		"/walk?from=0&length=30&count=1&seed=12345",
	} {
		var want, got walkResponse
		getJSON(t, single.URL+q, http.StatusOK, &want)
		getJSON(t, router.URL+q, http.StatusOK, &got)
		wj, _ := json.Marshal(want.Walks)
		gj, _ := json.Marshal(got.Walks)
		if string(wj) != string(gj) {
			t.Fatalf("%s: routed cluster diverged from single process\nsingle: %s\nrouted: %s", q, wj, gj)
		}
		if got.Cost["shards"] != "3" {
			t.Fatalf("router cost missing shards: %v", got.Cost)
		}
	}
}

// Each shard answers only the walk ids whose source it owns; the others
// return empty partial responses — the ownership split the router merges.
func TestShardPartialResponses(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 62)
	servers := newShardCluster(t, g, sampling.WeightSpec{}, 3, Config{}, nil)
	part, err := shard.NewPartitioner(g, 3)
	if err != nil {
		t.Fatal(err)
	}

	const from, count = 7, 5
	owner := part.Owner(from)
	total := 0
	for i, ts := range servers {
		var out shardWalkResponse
		getJSON(t, ts.URL+"/walk?from=7&length=10&count=5&seed=3", http.StatusOK, &out)
		if out.Shard != i || out.Partitions != 3 {
			t.Fatalf("shard %d: identity %d/%d", i, out.Shard, out.Partitions)
		}
		if len(out.WalkIDs) != len(out.Walks) {
			t.Fatalf("shard %d: %d ids for %d walks", i, len(out.WalkIDs), len(out.Walks))
		}
		if i != owner && len(out.WalkIDs) != 0 {
			t.Fatalf("shard %d answered %d walks for a vertex owned by shard %d", i, len(out.WalkIDs), owner)
		}
		total += len(out.WalkIDs)
	}
	if total != count {
		t.Fatalf("cluster answered %d walks, want %d", total, count)
	}
}

// failingCaller refuses every migration with a transient peer error,
// simulating a down peer without sockets.
type failingCaller struct{}

func (failingCaller) Step(context.Context, int, *wire.StepRequest) (*wire.StepResponse, error) {
	return nil, &wire.PeerError{Addr: "127.0.0.1:1", Err: errors.New("connection refused")}
}

// migrationGraph builds the chain 0 → 1 → 2 whose first edge crosses the
// 2-partition boundary (vertex 0's edge is the earlier half of the graph's),
// so the very first walk step after arrival needs the peer — a deterministic
// way to exercise the peer-down path.
func migrationGraph(t *testing.T) (*temporal.Graph, temporal.Vertex) {
	t.Helper()
	g := temporal.MustFromEdges([]temporal.Edge{{Src: 0, Dst: 1, Time: 5}, {Src: 1, Dst: 2, Time: 6}})
	part, err := shard.NewPartitioner(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if part.Owner(0) != 0 || part.Owner(1) != 1 {
		t.Fatalf("owners %d, %d; want the edge 0 → 1 to cross from shard 0 to shard 1", part.Owner(0), part.Owner(1))
	}
	return g, 0
}

// A peer shard going down mid-walk surfaces as 503 + Retry-After: the shard
// is healthy, the cluster is momentarily incomplete, the query is retryable.
func TestShardWalkPeerDown503(t *testing.T) {
	g, from := migrationGraph(t)
	node, err := shard.NewNode(g, sampling.WeightSpec{}, shard.Config{ShardID: 0, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewShard(node, failingCaller{}, Config{}).Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/walk?from=" + strconv.Itoa(int(from)) + "&length=4&count=1&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// Whole-graph analytics need the full index resident and are not served by
// one shard.
func TestShardServerRejectsGlobalQueries(t *testing.T) {
	g := testutil.RandomGraph(t, 50, 1000, 300, 63)
	servers := newShardCluster(t, g, sampling.WeightSpec{}, 2, Config{}, nil)
	for _, path := range []string{"/ppr?from=1", "/reach?from=1"} {
		resp, err := http.Get(servers[0].URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Fatalf("%s: status %d, want 501", path, resp.StatusCode)
		}
	}
}

// An unreachable shard makes the router's /walk and /readyz answer 503 with
// Retry-After within the request deadline — the acceptance criterion for the
// killed-peer scenario.
func TestRouterShardDown(t *testing.T) {
	g := testutil.RandomGraph(t, 50, 1000, 300, 64)
	servers := newShardCluster(t, g, sampling.WeightSpec{}, 2, Config{}, nil)
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close() // bound then closed: connection refused, a dead shard
	rt, err := NewRouter(RouterConfig{Shards: []string{servers[0].URL, down.URL}})
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

	// The healthy cluster is ready.
	full := newShardRouter(t, servers, RouterConfig{})
	var out map[string]any
	getJSON(t, full.URL+"/readyz", http.StatusOK, &out)
	if out["status"] != "ready" {
		t.Fatalf("readyz: %v", out)
	}
}

// A shard built for a different partition count is a deployment error: the
// router detects the fingerprint mismatch and answers 502, not silent
// misownership.
func TestRouterPartitionMismatch502(t *testing.T) {
	g := testutil.RandomGraph(t, 50, 1000, 300, 65)
	// Two servers that both claim to be a full 1-partition cluster, fronted
	// by a router that thinks there are two shards.
	one := newShardCluster(t, g, sampling.WeightSpec{}, 1, Config{}, nil)
	two := newShardCluster(t, g, sampling.WeightSpec{}, 1, Config{}, nil)
	rt, err := NewRouter(RouterConfig{Shards: []string{one[0].URL, two[0].URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/walk?from=1&length=5&count=2&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
}

// The satellite's trace criterion: one X-Request-ID names the request on the
// router and on every shard it fanned to, so /debug/tea/trace on each
// process shows the same timeline key.
func TestRouterTracePropagation(t *testing.T) {
	g := testutil.RandomGraph(t, 80, 2000, 400, 66)
	tracers := []*trace.Tracer{
		trace.New(trace.Config{SampleFraction: 1, MaxTraces: 16, MaxSpansPerTrace: 256}),
		trace.New(trace.Config{SampleFraction: 1, MaxTraces: 16, MaxSpansPerTrace: 256}),
	}
	servers := newShardCluster(t, g, sampling.WeightSpec{}, 2, Config{}, tracers)
	routerTracer := trace.New(trace.Config{SampleFraction: 1, MaxTraces: 16, MaxSpansPerTrace: 256})
	router := newShardRouter(t, servers, RouterConfig{Config: Config{Trace: routerTracer}})

	const reqID = "req-router-trace-1"
	req, _ := http.NewRequest(http.MethodGet, router.URL+"/walk?from=3&length=10&count=4&seed=5", nil)
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Fatalf("router echoed request id %q, want %q", got, reqID)
	}

	spans, _, ok := routerTracer.Trace(reqID)
	if !ok {
		t.Fatal("router recorded no trace under the request id")
	}
	var sawRoot, sawFanout bool
	for _, sp := range spans {
		switch sp.Name {
		case "server.request":
			sawRoot = true
		case "router.fanout":
			sawFanout = true
		}
	}
	if !sawRoot || !sawFanout {
		t.Fatalf("router trace missing spans (root=%v fanout=%v): %+v", sawRoot, sawFanout, spans)
	}
	for i, tr := range tracers {
		spans, _, ok := tr.Trace(reqID)
		if !ok {
			t.Fatalf("shard %d recorded no trace under the propagated request id", i)
		}
		var sawShard bool
		for _, sp := range spans {
			if sp.Name == "server.request" {
				sawShard = true
			}
		}
		if !sawShard {
			t.Fatalf("shard %d trace missing server.request: %+v", i, spans)
		}
	}
}

// Shard /stats describes the partition, router /stats aggregates them.
func TestShardAndRouterStats(t *testing.T) {
	g := testutil.RandomGraph(t, 100, 3000, 600, 67)
	servers := newShardCluster(t, g, sampling.WeightSpec{}, 3, Config{}, nil)
	edges := 0
	for i, ts := range servers {
		var out shardStatsResponse
		getJSON(t, ts.URL+"/stats", http.StatusOK, &out)
		if out.Shard != i || out.Partitions != 3 || out.Vertices != g.NumVertices() {
			t.Fatalf("shard %d stats: %+v", i, out)
		}
		edges += out.OwnedEdges
	}
	if edges != g.NumEdges() {
		t.Fatalf("shards own %d edges, graph has %d", edges, g.NumEdges())
	}

	router := newShardRouter(t, servers, RouterConfig{})
	var agg struct {
		Partitions int                  `json:"partitions"`
		Shards     []shardStatsResponse `json:"shards"`
	}
	getJSON(t, router.URL+"/stats", http.StatusOK, &agg)
	if agg.Partitions != 3 || len(agg.Shards) != 3 {
		t.Fatalf("router stats: %+v", agg)
	}
}
