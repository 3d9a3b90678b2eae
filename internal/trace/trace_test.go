package trace

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestSpanTree exercises the full sampled path: root → children → leaf
// spans, annotations, and tree reconstruction by trace ID.
func TestSpanTree(t *testing.T) {
	tr := New(Config{SampleFraction: 1})
	ctx, root := tr.StartRoot(context.Background(), "request", "req-1")
	if root == nil {
		t.Fatal("root span not created at fraction 1")
	}
	if !root.Sampled() {
		t.Fatal("root not sampled at fraction 1")
	}
	root.SetStr("endpoint", "walk")

	ctx2, run := Start(ctx, "engine.run")
	run.SetInt("walks", 10)
	leaf := StartSpan(ctx2, "block_fetch")
	leaf.SetStr("source", "hit")
	leaf.End()
	run.End()
	root.SetInt("status", 200)
	root.End()

	spans, dropped, ok := tr.Trace("req-1")
	if !ok {
		t.Fatal("trace req-1 not retained")
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	roots := BuildTree(spans)
	if len(roots) != 1 || roots[0].Name != "request" {
		t.Fatalf("tree roots = %+v, want single request root", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "engine.run" {
		t.Fatalf("request children = %+v, want engine.run", roots[0].Children)
	}
	kids := roots[0].Children[0].Children
	if len(kids) != 1 || kids[0].Name != "block_fetch" {
		t.Fatalf("engine.run children = %+v, want block_fetch", kids)
	}
	if kids[0].Attrs[0].Key != "source" || kids[0].Attrs[0].Value != "hit" {
		t.Fatalf("leaf attrs = %+v", kids[0].Attrs)
	}
}

// TestDisabledPathNilSpans checks every disabled shape returns nil spans
// and that nil spans are safe to use.
func TestDisabledPathNilSpans(t *testing.T) {
	cases := []struct {
		name string
		ctx  context.Context
	}{
		{"no tracer", context.Background()},
		{"zero config", WithTracer(context.Background(), New(Config{}))},
		{"nil tracer", WithTracer(context.Background(), nil)},
	}
	for _, tc := range cases {
		ctx, sp := Start(tc.ctx, "x")
		if sp != nil {
			t.Fatalf("%s: got non-nil span", tc.name)
		}
		if ctx != tc.ctx {
			t.Fatalf("%s: context was rederived on the disabled path", tc.name)
		}
		sp.SetInt("k", 1)
		sp.SetStr("s", "v")
		sp.SetError(errors.New("boom"))
		sp.End()
		if StartSpan(ctx, "leaf") != nil {
			t.Fatalf("%s: leaf span on disabled path", tc.name)
		}
	}
}

// TestFlightRecorderWithoutSampling verifies spans and events land in the
// ring even when nothing is sampled, and that the ring keeps only the last N.
func TestFlightRecorderWithoutSampling(t *testing.T) {
	tr := New(Config{FlightSpans: 4})
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 10; i++ {
		c2, sp := Start(ctx, "op")
		sp.SetInt("i", int64(i))
		EventCtx(c2, KindRetry, "trunk retry", Int("attempt", 1))
		sp.End()
	}
	if _, _, ok := tr.Trace(""); ok {
		t.Fatal("unsampled trace retained")
	}
	if ids := tr.TraceIDs(); len(ids) != 0 {
		t.Fatalf("TraceIDs = %v, want none (nothing sampled)", ids)
	}
	ev := tr.Flight()
	if len(ev) != 4 {
		t.Fatalf("flight holds %d events, want ring capacity 4", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq <= ev[i-1].Seq {
			t.Fatalf("flight not ordered by seq: %v", ev)
		}
	}
	var kinds []string
	for _, e := range ev {
		kinds = append(kinds, e.Kind)
	}
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, KindRetry) || !strings.Contains(joined, KindSpan) {
		t.Fatalf("flight kinds = %v, want both span and retry entries", kinds)
	}
}

// TestEventInSampledTrace verifies EventCtx instants appear in the trace.
func TestEventInSampledTrace(t *testing.T) {
	tr := New(Config{SampleFraction: 1, FlightSpans: 8})
	ctx, root := tr.StartRoot(context.Background(), "request", "req-e")
	EventCtx(ctx, KindCancel, "client gone")
	root.End()
	spans, _, ok := tr.Trace("req-e")
	if !ok {
		t.Fatal("trace not retained")
	}
	found := false
	for _, s := range spans {
		if s.Name == "client gone" && len(s.Attrs) > 0 && s.Attrs[0].Value == KindCancel {
			found = true
		}
	}
	if !found {
		t.Fatalf("cancel instant missing from trace: %+v", spans)
	}
}

// TestTraceEviction verifies FIFO eviction of retained traces: of
// maxTraces+1 traces, only the first is gone.
func TestTraceEviction(t *testing.T) {
	tr := New(Config{SampleFraction: 1})
	for i := 0; i <= maxTraces; i++ {
		_, sp := tr.StartRoot(context.Background(), "r", strconv.Itoa(i))
		sp.End()
	}
	if _, _, ok := tr.Trace("0"); ok {
		t.Fatal("oldest trace survived past maxTraces")
	}
	for i := 1; i <= maxTraces; i++ {
		if _, _, ok := tr.Trace(strconv.Itoa(i)); !ok {
			t.Fatalf("trace %d evicted early", i)
		}
	}
}

// TestMaxSpansPerTrace verifies the per-trace bound counts drops.
func TestMaxSpansPerTrace(t *testing.T) {
	tr := New(Config{SampleFraction: 1})
	ctx, root := tr.StartRoot(context.Background(), "r", "big")
	for i := 0; i < maxSpansPerTrace+3; i++ {
		_, sp := Start(ctx, "child")
		sp.End()
	}
	root.End()
	spans, dropped, ok := tr.Trace("big")
	if !ok || len(spans) != maxSpansPerTrace || dropped != 4 {
		t.Fatalf("spans=%d dropped=%d ok=%v, want %d/4/true", len(spans), dropped, ok, maxSpansPerTrace)
	}
}

// TestSampleFractionZeroFlightOff is the contract behind the overhead
// budget: fully disabled tracer in context still yields nil spans.
func TestSampleFractionZeroFlightOff(t *testing.T) {
	tr := New(Config{SampleFraction: 0, FlightSpans: 0})
	if tr.Enabled() {
		t.Fatal("zero-config tracer reports enabled")
	}
	ctx, sp := tr.StartRoot(context.Background(), "r", "id")
	if sp != nil {
		t.Fatal("span created by disabled tracer")
	}
	if _, sp2 := Start(ctx, "child"); sp2 != nil {
		t.Fatal("child span created by disabled tracer")
	}
}

// TestConcurrentSpansAndFlight hammers the tracer from many goroutines to
// give the race detector a target: sampled completions, flight writes, and
// dumps all interleave.
func TestConcurrentSpansAndFlight(t *testing.T) {
	tr := New(Config{SampleFraction: 1, FlightSpans: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := tr.StartRoot(context.Background(), "r", "")
				_, sp := Start(ctx, "child")
				sp.SetInt("g", int64(g))
				sp.End()
				root.End()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.Flight()
			for _, id := range tr.TraceIDs() {
				tr.Trace(id)
			}
		}
	}()
	wg.Wait()
	<-done
}

// TestRequestIDContext round-trips request IDs through context.
func TestRequestIDContext(t *testing.T) {
	if RequestID(context.Background()) != "" {
		t.Fatal("background context has a request id")
	}
	ctx := WithRequestID(context.Background(), "abc")
	if RequestID(ctx) != "abc" {
		t.Fatal("request id lost")
	}
	id := New(Config{}).NewID()
	if len(id) != 16 {
		t.Fatalf("NewID length = %d, want 16", len(id))
	}
}
