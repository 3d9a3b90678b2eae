package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/wal"
)

// Response shapes the route oracle pins.
const (
	ctJSON = "application/json"
	ctText = "text/plain; charset=utf-8"
	ctProm = "text/plain; version=0.0.4; charset=utf-8"

	bodyNotFound   = "404 page not found\n"
	bodyNotAllowed = "Method Not Allowed\n"
	bodyNoTracing  = `{"error":"tracing disabled; start teaserve with -trace-fraction ` + jsonGT + ` 0 or -flight-spans ` + jsonGT + ` 0"}` + "\n"
	jsonGT         = `\` + "u003e" // encoding/json escapes '>' in strings
	bodyQueryOnly  = `{"error":"server is not in durable-ingest mode (start with -wal-dir to ingest)"}` + "\n"
	bodyIngestOnly = `{"error":"endpoint unavailable in durable-ingest mode (serving a live stream, not a preprocessed index)"}` + "\n"
	bodyShardOnly  = `{"error":"endpoint not available in shard mode; use a single-process teaserve"}` + "\n"
)

// routeWant is one mode's pinned answer to one request: status,
// Content-Type, whether Retry-After is set, and — for 404, 405 and 501 —
// the exact body.
type routeWant struct {
	status int
	ct     string
	retry  bool
	body   string
}

var (
	okJSON     = routeWant{status: http.StatusOK, ct: ctJSON}
	notFound   = routeWant{status: http.StatusNotFound, ct: ctText, body: bodyNotFound}
	notAllowed = routeWant{status: http.StatusMethodNotAllowed, ct: ctText, body: bodyNotAllowed}
	noTracing  = routeWant{status: http.StatusNotFound, ct: ctJSON, body: bodyNoTracing}
	recovering = routeWant{status: http.StatusServiceUnavailable, ct: ctJSON, retry: true}
)

func unavailable(body string) routeWant {
	return routeWant{status: http.StatusNotImplemented, ct: ctJSON, body: body}
}

// routeModes are the serving modes the route oracle drives, in the column
// order of routeTable.
var routeModes = []string{"engine", "durable", "shard", "router", "recovering"}

// routeTable covers every method+path any serving mode registers, plus
// method mismatches and an unknown path, with one column per routeModes
// entry.
var routeTable = []struct {
	method, target, body string
	want                 [5]routeWant
}{
	{"GET", "/healthz", "", [5]routeWant{okJSON, okJSON, okJSON, okJSON, okJSON}},
	{"GET", "/readyz", "", [5]routeWant{okJSON, okJSON, okJSON, okJSON, recovering}},
	{"POST", "/edges", `{"edges":[{"src":0,"dst":1,"t":100}]}`,
		[5]routeWant{unavailable(bodyQueryOnly), okJSON, notFound, notFound, recovering}},
	{"POST", "/expire?before=1", "",
		[5]routeWant{unavailable(bodyQueryOnly), okJSON, notFound, notFound, recovering}},
	{"GET", "/stats", "", [5]routeWant{okJSON, okJSON, okJSON, okJSON, recovering}},
	{"GET", "/walk?from=1&length=5&count=2&seed=1", "", [5]routeWant{okJSON, okJSON, okJSON, okJSON, recovering}},
	{"GET", "/ppr?from=1&walks=100", "",
		[5]routeWant{okJSON, unavailable(bodyIngestOnly), unavailable(bodyShardOnly), notFound, unavailable(bodyIngestOnly)}},
	{"GET", "/reach?from=1", "",
		[5]routeWant{okJSON, unavailable(bodyIngestOnly), unavailable(bodyShardOnly), notFound, unavailable(bodyIngestOnly)}},
	{"GET", "/metrics", "", func() (w [5]routeWant) {
		for i := range w {
			w[i] = routeWant{status: http.StatusOK, ct: ctProm}
		}
		return w
	}()},
	{"GET", "/metrics.json", "", [5]routeWant{okJSON, okJSON, okJSON, okJSON, okJSON}},
	{"GET", "/debug/tea/trace", "", [5]routeWant{noTracing, noTracing, noTracing, noTracing, noTracing}},
	{"GET", "/debug/tea/flight", "", [5]routeWant{noTracing, noTracing, noTracing, noTracing, noTracing}},
	{"GET", "/debug/tea/top", "", [5]routeWant{okJSON, okJSON, okJSON, okJSON, okJSON}},
	{"POST", "/walk?from=1", "", [5]routeWant{notAllowed, notAllowed, notAllowed, notAllowed, notAllowed}},
	{"DELETE", "/healthz", "", [5]routeWant{notAllowed, notAllowed, notAllowed, notAllowed, notAllowed}},
	{"GET", "/edges", "", [5]routeWant{notAllowed, notAllowed, notFound, notFound, notAllowed}},
	{"GET", "/nope", "", [5]routeWant{notFound, notFound, notFound, notFound, notFound}},
}

// routeServers starts one server per routeModes entry. The shard steps to
// its peer over a real wire connection so its /healthz carries replica rows.
func routeServers(t *testing.T) []*httptest.Server {
	t.Helper()
	start := func(h http.Handler) *httptest.Server {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts
	}
	cfg := func() Config { return Config{Metrics: metrics.NewRegistry()} }

	eng, err := core.NewEngine(temporal.CommuteGraph(), core.Unbiased(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	engine := start(NewWithConfig(eng, cfg()).Handler())

	ds := NewDurable(cfg())
	d, err := stream.OpenDurable(t.TempDir(), stream.DurableConfig{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 10}, {Src: 0, Dst: 2, Time: 11}, {Src: 1, Dst: 2, Time: 12}}); err != nil {
		t.Fatal(err)
	}
	ds.SetDurable(d)
	durable := start(ds.Handler())

	g := testutil.RandomGraph(t, 50, 1000, 300, 71)
	nodes := make([]*shard.Node, 2)
	for i := range nodes {
		if nodes[i], err = shard.NewNode(g, sampling.WeightSpec{}, shard.Config{ShardID: i, Partitions: 2}); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wsrv := wire.NewServer(ln, nodes[1], nil)
	t.Cleanup(func() { wsrv.Close() })
	peers := shard.NewReplicaPeers(map[int][]string{1: {ln.Addr().String()}},
		shard.ReplicaPeersConfig{Metrics: metrics.NewRegistry()})
	t.Cleanup(peers.Close)
	sh := start(NewShard(nodes[0], peers, cfg()).Handler())

	shards := newShardCluster(t, g, sampling.WeightSpec{}, 2, cfg(), nil)
	router := newShardRouter(t, shards, RouterConfig{Metrics: metrics.NewRegistry()})

	recov := start(NewDurable(cfg()).Handler())
	return []*httptest.Server{engine, durable, sh, router, recov}
}

func doRoute(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRouteTable is the serving modes' route oracle: every mode answers
// every route with the pinned status, Content-Type, Retry-After presence and
// — for 404, 405 and 501 — body.
func TestRouteTable(t *testing.T) {
	servers := routeServers(t)
	for _, row := range routeTable {
		for m, ts := range servers {
			want := row.want[m]
			resp, body := doRoute(t, row.method, ts.URL+row.target, row.body)
			name := routeModes[m] + " " + row.method + " " + row.target
			if resp.StatusCode != want.status {
				t.Errorf("%s: status %d, want %d (body %s)", name, resp.StatusCode, want.status, body)
				continue
			}
			if ct := resp.Header.Get("Content-Type"); ct != want.ct {
				t.Errorf("%s: Content-Type %q, want %q", name, ct, want.ct)
			}
			if got := resp.Header.Get("Retry-After") != ""; got != want.retry {
				t.Errorf("%s: Retry-After present %v, want %v", name, got, want.retry)
			}
			if want.body != "" && string(body) != want.body {
				t.Errorf("%s: body %q, want %q", name, body, want.body)
			}
		}
	}
}

// objectKeys returns the keys of a flat JSON object in document order.
func objectKeys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not an object: %s", raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestReplicaRowKeys pins the replica rows on /healthz and /readyz key for
// key, in order: a router row names its replica by url, a shard row by addr
// and adds its open connection count.
func TestReplicaRowKeys(t *testing.T) {
	servers := routeServers(t)
	health := []string{"state", "consecutive_fails", "latency_ewma_ms", "ok_total", "err_total"}
	rows := func(url, field, partition string) []json.RawMessage {
		resp, body := doRoute(t, "GET", url, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(body, &top); err != nil {
			t.Fatal(err)
		}
		var tbl map[string][]json.RawMessage
		if err := json.Unmarshal(top[field], &tbl); err != nil {
			t.Fatalf("%s: %q: %v in %s", url, field, err, body)
		}
		if len(tbl[partition]) == 0 {
			t.Fatalf("%s: no %s rows for partition %s in %s", url, field, partition, body)
		}
		return tbl[partition]
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		for _, row := range rows(servers[3].URL+path, "replicas", "0") {
			if got, want := objectKeys(t, row), append([]string{"url"}, health...); !reflect.DeepEqual(got, want) {
				t.Fatalf("router %s row keys %v, want %v", path, got, want)
			}
		}
	}
	for _, row := range rows(servers[2].URL+"/healthz", "peers", "1") {
		if got, want := objectKeys(t, row), append(append([]string{"addr"}, health...), "open_conns"); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard /healthz row keys %v, want %v", got, want)
		}
	}
}
