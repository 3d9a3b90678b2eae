package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/ooc"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/trace"
)

// traceNode mirrors the span-tree JSON served by /debug/tea/trace.
type traceNode struct {
	Name     string       `json:"name"`
	Attrs    []trace.Attr `json:"attrs"`
	Error    string       `json:"error"`
	Children []*traceNode `json:"children"`
}

func collect(nodes []*traceNode, name string, out *[]*traceNode) {
	for _, n := range nodes {
		if n.Name == name {
			*out = append(*out, n)
		}
		collect(n.Children, name, out)
	}
}

func attrOf(n *traceNode, key string) (any, bool) {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// newOOCTraceServer builds the full acceptance-criteria stack: a server over
// an engine whose sampler is a DiskPAT with a block cache, backed by a store
// injecting transient read faults, with every request traced.
func newOOCTraceServer(t *testing.T) (*httptest.Server, *ooc.FaultInjector, *trace.Tracer) {
	t.Helper()
	tr := trace.New(trace.Config{SampleFraction: 1, FlightSpans: 256})
	ts, fi, _ := newOOCServer(t, fault.New(7, fault.Fault{Op: fault.Read, Rate: 0.3, Err: ooc.ErrTransient}),
		Config{Trace: tr, Metrics: metrics.NewRegistry()})
	return ts, fi, tr
}

// newOOCServer serves an engine whose sampler is a DiskPAT with a block
// cache, backed by a store injecting read faults per plan — the -ooc stack.
func newOOCServer(t *testing.T, plan *fault.Plan, cfg Config) (*httptest.Server, *ooc.FaultInjector, *ooc.DiskPAT) {
	t.Helper()
	g := temporal.CommuteGraph()
	app := core.ExponentialWalk(1)
	w, err := sampling.BuildGraphWeights(g, app.Weight, 0)
	if err != nil {
		t.Fatal(err)
	}
	store, err := ooc.NewTempStore()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	fi := ooc.NewFaultInjector(store, plan)
	dp, err := ooc.BuildDiskPAT(w, fi, 0)
	if err != nil {
		t.Fatal(err)
	}
	dp.EnableCache(ooc.CacheConfig{CapacityBytes: 1 << 20})
	eng, err := core.NewEngine(g, app, core.Options{ExternalSampler: dp, ExternalWeights: w})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithConfig(eng, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts, fi, dp
}

// TestTraceEndToEndOOC is the acceptance-criteria walkthrough: a /walk
// request with an X-Request-ID against a traced -ooc-style server yields,
// at /debug/tea/trace?id=<X-Request-ID>, a span tree containing the
// server-request, engine-run, walk-batch, and block-fetch spans, with cache
// source and retry annotations on the fetches.
func TestTraceEndToEndOOC(t *testing.T) {
	ts, fi, _ := newOOCTraceServer(t)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/walk?from=0&count=8&length=30&seed=3", nil)
	req.Header.Set("X-Request-ID", "e2e-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/walk status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "e2e-trace-1" {
		t.Fatalf("X-Request-ID echoed %q, want e2e-trace-1", got)
	}
	if fi.Injected() == 0 {
		t.Fatal("fault injector fired no faults; retry annotations untestable")
	}

	var tree struct {
		TraceID string       `json:"trace_id"`
		Spans   []*traceNode `json:"spans"`
	}
	getJSON(t, ts.URL+"/debug/tea/trace?id=e2e-trace-1", http.StatusOK, &tree)
	if tree.TraceID != "e2e-trace-1" || len(tree.Spans) != 1 {
		t.Fatalf("trace_id=%q roots=%d, want e2e-trace-1 with 1 root", tree.TraceID, len(tree.Spans))
	}

	root := tree.Spans[0]
	if root.Name != "server.request" {
		t.Fatalf("root span %q, want server.request", root.Name)
	}
	if ep, _ := attrOf(root, "endpoint"); ep != "walk" {
		t.Fatalf("root endpoint attr = %v", ep)
	}
	if st, _ := attrOf(root, "status"); st != float64(200) {
		t.Fatalf("root status attr = %v", st)
	}

	for _, name := range []string{"engine.run", "walk_batch", "ooc.block_fetch"} {
		var found []*traceNode
		collect(tree.Spans, name, &found)
		if len(found) == 0 {
			t.Fatalf("span tree has no %q span", name)
		}
	}

	// Every block fetch names its cache source; the injected transient
	// faults must have produced at least one retry annotation.
	var fetches []*traceNode
	collect(tree.Spans, "ooc.block_fetch", &fetches)
	retries := 0
	for _, f := range fetches {
		src, ok := attrOf(f, "source")
		if !ok {
			t.Fatalf("block fetch without source attr: %+v", f.Attrs)
		}
		switch src {
		case "hit", "miss", "coalesced", "bypass":
		default:
			t.Fatalf("block fetch source = %v", src)
		}
		if r, ok := attrOf(f, "retries"); ok {
			retries += int(r.(float64))
		}
	}
	if retries == 0 {
		t.Fatalf("no retry annotations across %d block fetches despite %d injected faults",
			len(fetches), fi.Injected())
	}

	// The walk batches sit under the engine run and carry the per-batch
	// sampling aggregates.
	var batches []*traceNode
	collect(tree.Spans, "walk_batch", &batches)
	for _, b := range batches {
		if _, ok := attrOf(b, "steps"); !ok {
			t.Fatalf("walk_batch without steps attr: %+v", b.Attrs)
		}
		if _, ok := attrOf(b, "edges_evaluated"); !ok {
			t.Fatalf("walk_batch without edges_evaluated attr: %+v", b.Attrs)
		}
	}

	// The same trace exports as a loadable Chrome trace_event document.
	resp, err = http.Get(ts.URL + "/debug/tea/trace?id=e2e-trace-1&format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 4 {
		t.Fatalf("chrome export has %d events, want at least 4", len(doc.TraceEvents))
	}
}

// TestFlightRecorderEndpoint: with sampling off but the flight recorder on,
// /debug/tea/trace finds nothing while /debug/tea/flight still holds the
// recent spans and retry events.
func TestFlightRecorderEndpoint(t *testing.T) {
	g := temporal.CommuteGraph()
	eng, err := core.NewEngine(g, core.Unbiased(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{SampleFraction: 0, FlightSpans: 64})
	ts := httptest.NewServer(NewWithConfig(eng, Config{Trace: tr, Metrics: metrics.NewRegistry()}).Handler())
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/walk?from=0&count=2&length=10", nil)
	req.Header.Set("X-Request-ID", "flight-req")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	getJSON(t, ts.URL+"/debug/tea/trace?id=flight-req", http.StatusNotFound, nil)

	var flight struct {
		Count  int `json:"count"`
		Events []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"events"`
	}
	getJSON(t, ts.URL+"/debug/tea/flight", http.StatusOK, &flight)
	if flight.Count == 0 {
		t.Fatal("flight recorder empty after a traced request")
	}
	names := map[string]bool{}
	for _, e := range flight.Events {
		if e.Kind == trace.KindSpan {
			names[e.Name] = true
		}
	}
	for _, want := range []string{"server.request", "engine.run"} {
		if !names[want] {
			t.Fatalf("flight recorder missing %q span (has %v)", want, names)
		}
	}
}

// TestTraceEndpointsDisabled: without a tracer the debug endpoints 404 but
// requests still get correlation IDs.
func TestTraceEndpointsDisabled(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); len(id) != 16 {
		t.Fatalf("minted X-Request-ID = %q, want 16 hex chars", id)
	}
	getJSON(t, ts.URL+"/debug/tea/trace", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/debug/tea/flight", http.StatusNotFound, nil)
}

// TestMetricsHeaders is the header regression test: both metrics renderings
// must declare their exact content type and refuse caching, and the
// snapshot must carry the build-info and uptime series.
func TestMetricsHeaders(t *testing.T) {
	g := temporal.CommuteGraph()
	eng, err := core.NewEngine(g, core.Unbiased(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithConfig(eng, Config{Metrics: metrics.NewRegistry()}).Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("/metrics Cache-Control = %q, want no-store", cc)
	}
	for _, series := range []string{"tea_build_info", "tea_uptime_seconds", "go_version="} {
		if !strings.Contains(string(body), series) {
			t.Fatalf("/metrics missing %q:\n%s", series, body)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics.json Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("/metrics.json Cache-Control = %q, want no-store", cc)
	}
	if !json.Valid(jsonBody) {
		t.Fatal("/metrics.json body is not valid JSON")
	}
	if !strings.Contains(string(jsonBody), "tea_uptime_seconds") {
		t.Fatalf("/metrics.json missing tea_uptime_seconds:\n%s", jsonBody)
	}
}
