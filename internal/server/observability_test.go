package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/temporal"

	// Link the out-of-core store so its metric families (and, transitively,
	// the block cache's) register on the default registry: /metrics must
	// cover engine, server, ooc, and blockcache.
	_ "github.com/tea-graph/tea/internal/ooc"
)

func newMeteredServer(t *testing.T, cfg Config) (*httptest.Server, *metrics.Registry) {
	t.Helper()
	g := temporal.CommuteGraph()
	eng, err := core.NewEngine(g, core.Unbiased(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	ts := httptest.NewServer(NewWithConfig(eng, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts, cfg.Metrics
}

// /metrics must render the Prometheus text format and cover the engine,
// server, and out-of-core metric families.
func TestMetricsEndpointFamilies(t *testing.T) {
	ts, _ := newMeteredServer(t, Config{Metrics: metrics.Default})
	// Generate some engine traffic so totals are non-trivial.
	var walk walkResponse
	getJSON(t, ts.URL+"/walk?from=9&length=3&count=2&seed=1", http.StatusOK, &walk)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE tea_engine_runs_started_total counter",
		"tea_engine_walks_total",
		"# TYPE tea_engine_run_seconds histogram",
		`tea_server_requests_total{endpoint="walk"}`,
		`tea_server_request_seconds_bucket{endpoint="walk",le="+Inf"}`,
		`tea_server_responses_total{endpoint="walk",class="2xx"}`,
		"tea_server_inflight",
		"tea_server_shed_total",
		"tea_server_timeout_total",
		"tea_ooc_reads_total",
		"tea_ooc_read_retries_total",
		"# TYPE tea_ooc_block_fetch_seconds histogram",
		"tea_blockcache_hits_total",
		"tea_blockcache_misses_total",
		"tea_blockcache_evictions_total",
		"tea_blockcache_coalesced_total",
		"tea_blockcache_resident_bytes",
		`tea_blockcache_served_bytes_total{source="cache"}`,
		`# TYPE tea_blockcache_fetch_seconds histogram`,
		"tea_wal_appended_records_total",
		"tea_wal_appended_bytes_total",
		"tea_wal_fsyncs_total",
		"tea_wal_fsync_errors_total",
		"# TYPE tea_wal_fsync_seconds histogram",
		"tea_wal_segments",
		"# TYPE tea_wal_group_commit_records histogram",
		"tea_wal_snapshots_total",
		"tea_wal_recovery_seconds",
		"tea_wal_recovery_replayed_records",
		"tea_wal_recovery_truncated_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}

// /metrics.json must expose the same snapshot as JSON.
func TestMetricsJSONEndpoint(t *testing.T) {
	ts, _ := newMeteredServer(t, Config{})
	var walk walkResponse
	getJSON(t, ts.URL+"/walk?from=9&length=3&seed=1", http.StatusOK, &walk)

	var snap metrics.Snapshot
	getJSON(t, ts.URL+"/metrics.json", http.StatusOK, &snap)
	found := false
	for _, c := range snap.Counters {
		if c.Name == `tea_server_requests_total{endpoint="walk"}` {
			found = true
			if c.Value < 1 {
				t.Fatalf("walk request counter = %d", c.Value)
			}
		}
	}
	if !found {
		t.Fatalf("walk request counter missing from snapshot: %+v", snap.Counters)
	}
}

// Per-endpoint counters and status classes must track real traffic.
func TestInstrumentationCounts(t *testing.T) {
	ts, reg := newMeteredServer(t, Config{})
	var walk walkResponse
	getJSON(t, ts.URL+"/walk?from=9&length=3&seed=1", http.StatusOK, &walk)
	var bad map[string]string
	getJSON(t, ts.URL+"/walk?from=9&length=0", http.StatusBadRequest, &bad)

	if got := reg.Counter(`tea_server_requests_total{endpoint="walk"}`).Value(); got != 2 {
		t.Fatalf("walk requests = %d, want 2", got)
	}
	if got := reg.Counter(`tea_server_responses_total{endpoint="walk",class="2xx"}`).Value(); got != 1 {
		t.Fatalf("2xx responses = %d, want 1", got)
	}
	if got := reg.Counter(`tea_server_responses_total{endpoint="walk",class="4xx"}`).Value(); got != 1 {
		t.Fatalf("4xx responses = %d, want 1", got)
	}
	if got := reg.Histogram(`tea_server_request_seconds{endpoint="walk"}`).Count(); got != 2 {
		t.Fatalf("latency observations = %d, want 2", got)
	}
	if got := reg.Gauge("tea_server_inflight").Value(); got != 0 {
		t.Fatalf("inflight after requests = %v, want 0", got)
	}
}

// A shed request must increment the shed counter (alongside the 503 path
// covered by TestLoadShedding).
func TestShedCounter(t *testing.T) {
	g := temporal.CommuteGraph()
	eng, err := core.NewEngine(g, core.Unbiased(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s := NewWithConfig(eng, Config{MaxInFlight: 1, Metrics: reg})
	s.inflight <- struct{}{} // occupy the only slot
	defer func() { <-s.inflight }()

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/walk?from=9", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if got := reg.Counter("tea_server_shed_total").Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

// An oversized length must be rejected with 400 before any allocation: the
// historical failure mode was length=2000000000 allocating a ~16 GB
// histogram. The request must come back immediately.
func TestLengthCapRejectsHugeRequest(t *testing.T) {
	ts, _ := newMeteredServer(t, Config{})
	start := time.Now()
	var out map[string]string
	getJSON(t, ts.URL+"/walk?from=9&length=2000000000", http.StatusBadRequest, &out)
	if out["error"] == "" {
		t.Fatal("no structured error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("rejection took %v; the request likely allocated", elapsed)
	}
}

// The length cap is config-overridable; the other caps are constants, and
// each admits its own value and refuses one more.
func TestCapsConfigurable(t *testing.T) {
	ts, _ := newMeteredServer(t, Config{MaxWalkLength: 5})
	var walk walkResponse
	getJSON(t, ts.URL+"/walk?from=9&length=5&count="+strconv.Itoa(maxWalkCount), http.StatusOK, &walk)
	var bad map[string]string
	getJSON(t, ts.URL+"/walk?from=9&length=6", http.StatusBadRequest, &bad)
	getJSON(t, ts.URL+"/walk?from=9&length=5&count="+strconv.Itoa(maxWalkCount+1), http.StatusBadRequest, &bad)
	getJSON(t, ts.URL+"/ppr?from=9&walks="+strconv.Itoa(maxPPRWalks+1), http.StatusBadRequest, &bad)
	getJSON(t, ts.URL+"/ppr?from=9&topk="+strconv.Itoa(maxTopK+1), http.StatusBadRequest, &bad)
	var ppr pprResponse
	getJSON(t, ts.URL+"/ppr?from=9&walks=100&topk="+strconv.Itoa(maxTopK), http.StatusOK, &ppr)
}

// The JSON snapshot endpoint must be valid JSON even with zero traffic.
func TestMetricsJSONEmptyRegistry(t *testing.T) {
	ts, _ := newMeteredServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
}
