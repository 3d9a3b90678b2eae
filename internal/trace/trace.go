// Package trace is the engine's request-scoped observability layer: a
// dependency-free span tracer that correlates one server request with the
// engine run it triggered, the per-worker walk batches inside that run, and
// the out-of-core block fetches (with cache hit/miss and retry annotations)
// those batches issued. Where package metrics answers "how is the system
// doing in aggregate", this package answers "why was this one request slow".
//
// Three mechanisms share one Tracer:
//
//   - Head-based sampling. Each root span (one per server request or
//     top-level run) is sampled with probability Config.SampleFraction.
//     Sampled traces are retained in full — every descendant span with its
//     annotations — and are retrievable by trace ID for export as a span
//     tree, compact JSON lines, or a Chrome trace_event document loadable in
//     chrome://tracing and Perfetto.
//
//   - Flight recorder. Independently of sampling, a lock-free ring buffer
//     keeps the last Config.FlightSpans completed spans and discrete
//     error/cancel/retry events. When a p99 spike happens with sampling off
//     (or the spike was not sampled), the recorder still holds the recent
//     past and is dumpable at any time via Flight().
//
//   - Structured logging. A slog.Handler wrapper injects the request and
//     trace IDs carried by a context into every log record, so one grep on a
//     request ID yields the full story across server, engine, and store.
//
// The disabled path is near-free by contract: when neither sampling nor the
// flight recorder wants a span, Start returns a nil *Span, every method of
// which is a no-op — no allocations, no atomics, no time calls (benchmarked
// at 0 B/op in this package's tests). Spans are owned by the goroutine that
// started them; only End publishes to shared structures.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes a Tracer. The zero value disables everything: Start returns
// nil spans and events are dropped.
type Config struct {
	// SampleFraction is the probability in [0, 1] that a new root span is
	// sampled, i.e. its whole tree retained for retrieval by trace ID.
	SampleFraction float64
	// FlightSpans is the flight-recorder capacity in events (rounded up to a
	// power of two); 0 turns the recorder off.
	FlightSpans int
	// Instance names the process in every span this tracer records (e.g.
	// "router", "shard-2"), so spans merged across processes stay
	// attributable. Empty leaves spans unstamped.
	Instance string
	// Shard is the shard id stamped alongside Instance; negative means the
	// process serves no shard (router, single-process server).
	Shard int
}

const (
	// maxTraces bounds the retained sampled traces; the oldest trace is
	// evicted first.
	maxTraces = 64
	// maxSpansPerTrace bounds one trace's span count; spans beyond the bound
	// are counted as dropped, not retained.
	maxSpansPerTrace = 4096
)

// Tracer owns the sampled-trace store and the flight recorder. All methods
// are safe for concurrent use. A nil *Tracer is valid and fully disabled.
type Tracer struct {
	cfg Config

	seq atomic.Uint64 // span ID allocator (IDs are per-tracer unique, never 0)
	rng atomic.Uint64 // splitmix64 state for sampling decisions and trace IDs

	// Flight recorder: fixed ring of atomically published events. Writers
	// claim a slot with one atomic add and store an immutable *Event; readers
	// load slots and order by sequence number. No locks on either side.
	ring     []atomic.Pointer[Event]
	ringMask uint64
	ringPos  atomic.Uint64

	// Sampled traces, keyed by trace ID, FIFO-evicted. Only sampled span
	// completions take this lock — never the disabled or flight-only paths.
	mu     sync.Mutex
	traces map[string]*traceBuf
	order  []string
}

// traceBuf accumulates one sampled trace's completed spans.
type traceBuf struct {
	spans   []SpanRecord
	dropped int
}

// New builds a tracer. A zero cfg yields a tracer that records nothing.
func New(cfg Config) *Tracer {
	t := &Tracer{cfg: cfg, traces: make(map[string]*traceBuf)}
	if cfg.FlightSpans > 0 {
		n := 1
		for n < cfg.FlightSpans {
			n <<= 1
		}
		t.ring = make([]atomic.Pointer[Event], n)
		t.ringMask = uint64(n - 1)
	}
	t.rng.Store(uint64(time.Now().UnixNano()) | 1)
	return t
}

// Enabled reports whether the tracer can record anything at all.
func (t *Tracer) Enabled() bool {
	return t != nil && (t.cfg.SampleFraction > 0 || len(t.ring) > 0)
}

// Config returns the configuration the tracer was built with (after
// defaulting).
func (t *Tracer) Config() Config { return t.cfg }

// next advances the splitmix64 state and returns a pseudo-random word.
func (t *Tracer) next() uint64 {
	for {
		old := t.rng.Load()
		x := old + 0x9e3779b97f4a7c15
		if t.rng.CompareAndSwap(old, x) {
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			return x ^ (x >> 31)
		}
	}
}

// sampleRoot decides whether a new root span is sampled.
func (t *Tracer) sampleRoot() bool {
	f := t.cfg.SampleFraction
	if f <= 0 {
		return false
	}
	if f >= 1 {
		return true
	}
	return float64(t.next()>>11)/(1<<53) < f
}

// NewID returns a fresh 16-hex-character identifier, usable as a request or
// trace ID.
func (t *Tracer) NewID() string { return formatID(t.next()) }

// idState backs GenID: a process-global splitmix64 stream for callers that
// need an ID without holding a Tracer (e.g. the server minting X-Request-ID
// values while tracing is disabled).
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano()) | 1) }

// GenID returns a fresh 16-hex-character identifier from the process-global
// stream.
func GenID() string {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return formatID(x ^ (x >> 31))
}

// formatID renders a 64-bit word as 16 lowercase hex characters.
func formatID(x uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[x&0xf]
		x >>= 4
	}
	return string(b[:])
}

// keep appends a completed sampled span to its trace, creating the trace
// (and evicting the oldest) as needed.
func (t *Tracer) keep(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tb := t.traces[rec.TraceID]
	if tb == nil {
		for len(t.order) >= maxTraces {
			delete(t.traces, t.order[0])
			t.order = t.order[1:]
		}
		tb = &traceBuf{}
		t.traces[rec.TraceID] = tb
		t.order = append(t.order, rec.TraceID)
	}
	if len(tb.spans) >= maxSpansPerTrace {
		tb.dropped++
		return
	}
	tb.spans = append(tb.spans, rec)
}

// Trace returns the completed spans of a sampled trace (sorted by start
// time, ties by span ID) and how many spans were dropped by the per-trace
// bound. ok is false when the ID names no retained trace.
func (t *Tracer) Trace(id string) (spans []SpanRecord, dropped int, ok bool) {
	if t == nil {
		return nil, 0, false
	}
	t.mu.Lock()
	tb := t.traces[id]
	if tb != nil {
		spans = append([]SpanRecord(nil), tb.spans...)
		dropped = tb.dropped
	}
	t.mu.Unlock()
	if tb == nil {
		return nil, 0, false
	}
	sortSpans(spans)
	return spans, dropped, true
}

// Inject adds externally produced span records — summaries shipped back by
// shard processes — to the retained trace traceID, so one request's spans
// from every process it touched assemble into one exportable trace. Span IDs
// are remapped through this tracer's allocator (remote processes allocate
// from their own sequences, so raw IDs would collide); parent links are
// preserved when the parent arrived in the same batch and cleared otherwise,
// making such spans roots that BuildTree attaches at the top level.
func (t *Tracer) Inject(traceID string, recs []SpanRecord) {
	if t == nil || traceID == "" || len(recs) == 0 {
		return
	}
	idmap := make(map[uint64]uint64, len(recs))
	for _, r := range recs {
		if r.SpanID != 0 {
			idmap[r.SpanID] = t.seq.Add(1)
		}
	}
	for _, r := range recs {
		r.TraceID = traceID
		r.SpanID = idmap[r.SpanID]
		if mapped, ok := idmap[r.ParentID]; ok && r.ParentID != 0 {
			r.ParentID = mapped
		} else {
			r.ParentID = 0
		}
		t.keep(r)
		t.recordSpan(r)
	}
}

// TraceIDs lists the retained sampled traces, oldest first.
func (t *Tracer) TraceIDs() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}

// sortSpans orders spans by start time, ties broken by span ID (parents
// started before their children, so tree rendering is stable).
func sortSpans(spans []SpanRecord) {
	// Insertion sort: traces are small and mostly ordered already.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && less(spans[j], spans[j-1]); j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

func less(a, b SpanRecord) bool {
	if a.StartMicros != b.StartMicros {
		return a.StartMicros < b.StartMicros
	}
	return a.SpanID < b.SpanID
}
