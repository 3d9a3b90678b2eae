package trace

import (
	"context"
	"testing"
)

// TestDisabledSpanZeroAllocs pins the overhead contract: with the tracer
// fully disabled (fraction 0, flight recorder off) the whole span lifecycle
// — Start, annotations, leaf spans, End — allocates nothing.
func TestDisabledSpanZeroAllocs(t *testing.T) {
	ctx := WithTracer(context.Background(), New(Config{}))
	allocs := testing.AllocsPerRun(1000, func() {
		c2, sp := Start(ctx, "engine.run")
		sp.SetInt("walks", 10)
		sp.SetStr("sampler", "HPAT+Index")
		leaf := StartSpan(c2, "ooc.block_fetch")
		leaf.SetStr("source", "hit")
		leaf.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f times/op, want 0", allocs)
	}
}

// BenchmarkDisabledSpan is the number the acceptance criteria cite: the
// disabled path must report 0 B/op.
func BenchmarkDisabledSpan(b *testing.B) {
	ctx := WithTracer(context.Background(), New(Config{}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c2, sp := Start(ctx, "engine.run")
		sp.SetInt("walks", 10)
		leaf := StartSpan(c2, "ooc.block_fetch")
		leaf.End()
		sp.End()
	}
}

// BenchmarkNoTracerSpan measures the cheapest possible disabled path: a
// context with no tracer at all (the default for every library call).
func BenchmarkNoTracerSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "engine.run")
		sp.End()
	}
}

// BenchmarkSampledSpan prices the enabled path for context: one child span
// with two annotations, retained in a sampled trace.
func BenchmarkSampledSpan(b *testing.B) {
	tr := New(Config{SampleFraction: 1})
	ctx, root := tr.StartRoot(context.Background(), "bench", "bench-trace")
	defer root.End()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "walk_batch")
		sp.SetInt("steps", int64(i))
		sp.End()
	}
}

// BenchmarkFlightOnlySpan prices the flight-recorder-only path (fraction 0).
func BenchmarkFlightOnlySpan(b *testing.B) {
	tr := New(Config{FlightSpans: 256})
	ctx := WithTracer(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "walk_batch")
		sp.End()
	}
}
