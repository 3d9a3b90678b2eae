package trace

import (
	"context"
	"time"
)

// Attr is one span or event annotation. Values are int64, float64, string,
// or bool; the helpers below construct them without exposing the boxing.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Int builds an integer annotation.
func Int(key string, v int64) Attr { return Attr{Key: key, Value: v} }

// Str builds a string annotation.
func Str(key, v string) Attr { return Attr{Key: key, Value: v} }

// Span is one in-progress operation. A nil *Span is the disabled fast path:
// every method is a no-op, so call sites never branch on "is tracing on".
// A span is owned by the goroutine that started it until End, which
// publishes an immutable SpanRecord to the tracer; the annotation methods
// must not be called concurrently or after End.
type Span struct {
	tracer  *Tracer
	traceID string
	id      uint64
	parent  uint64
	name    string
	start   time.Time
	sampled bool
	attrs   []Attr
	err     string
}

// SpanRecord is one completed span as retained by the tracer and rendered by
// the exporters.
type SpanRecord struct {
	TraceID     string `json:"trace_id"`
	SpanID      uint64 `json:"span_id"`
	ParentID    uint64 `json:"parent_id,omitempty"`
	Name        string `json:"name"`
	StartMicros int64  `json:"start_us"` // Unix microseconds
	DurMicros   int64  `json:"dur_us"`
	Attrs       []Attr `json:"attrs,omitempty"`
	Error       string `json:"error,omitempty"`
}

// ctxKey keys this package's context values.
type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	requestIDKey
)

// WithTracer returns a context carrying the tracer; Start below roots new
// traces on it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the context's tracer, or nil.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// WithRequestID returns a context carrying the request ID for log
// correlation (see NewLogHandler).
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the context's request ID, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// SpanFromContext returns the context's active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// Active reports whether the context carries a live span — i.e. whether work
// under this context is being recorded. Hot layers use it to decide once,
// up front, whether to take their context-threaded instrumented path.
func Active(ctx context.Context) bool { return SpanFromContext(ctx) != nil }

// Start opens a span under ctx: a child of the context's span when one is
// active, otherwise a new root on the context's tracer (with a fresh trace
// ID and a head sampling decision). It returns the context to pass to child
// work. When nothing would record the span — no tracer, or the tracer has
// sampling and the flight recorder both off, or the root sampling decision
// was "no" and the recorder is off — it returns ctx unchanged and a nil
// span, allocating nothing.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if parent := SpanFromContext(ctx); parent != nil {
		sp := parent.child(name)
		return context.WithValue(ctx, spanKey, sp), sp
	}
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := t.startRoot(name, "", false)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey, sp), sp
}

// StartSpan opens a leaf child of the context's active span without deriving
// a new context — the cheap form for instrumenting operations that spawn no
// sub-operations (a block fetch, a cache fill). Returns nil when the context
// has no active span.
func StartSpan(ctx context.Context, name string) *Span {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return nil
	}
	return parent.child(name)
}

// StartRoot opens a root span with an explicit trace ID — the server uses
// the request ID, so /debug/tea/trace?id=<X-Request-ID> finds the trace.
// Returns ctx unchanged and nil when the tracer records nothing.
func (t *Tracer) StartRoot(ctx context.Context, name, traceID string) (context.Context, *Span) {
	return t.startRootCtx(ctx, name, traceID, false)
}

// StartRootSampled is StartRoot with the head sampling decision forced to
// yes — used when an upstream process already sampled this request (the
// router's X-Trace-Sampled propagation), so every shard retains its part of
// the trace regardless of local sample fractions.
func (t *Tracer) StartRootSampled(ctx context.Context, name, traceID string) (context.Context, *Span) {
	return t.startRootCtx(ctx, name, traceID, true)
}

func (t *Tracer) startRootCtx(ctx context.Context, name, traceID string, force bool) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := t.startRoot(name, traceID, force)
	if sp == nil {
		return ctx, nil
	}
	ctx = WithTracer(ctx, t)
	return context.WithValue(ctx, spanKey, sp), sp
}

// startRoot creates a root span, deciding sampling; nil when neither the
// sampler nor the flight recorder wants it.
func (t *Tracer) startRoot(name, traceID string, force bool) *Span {
	if t == nil {
		return nil
	}
	sampled := force || t.sampleRoot()
	if !sampled && len(t.ring) == 0 {
		return nil
	}
	if traceID == "" {
		traceID = t.NewID()
	}
	return &Span{
		tracer:  t,
		traceID: traceID,
		id:      t.seq.Add(1),
		name:    name,
		start:   time.Now(),
		sampled: sampled,
	}
}

// child creates a sub-span inheriting the parent's trace and sampling.
func (s *Span) child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tracer:  s.tracer,
		traceID: s.traceID,
		id:      s.tracer.seq.Add(1),
		parent:  s.id,
		name:    name,
		start:   time.Now(),
		sampled: s.sampled,
	}
}

// TraceID returns the span's trace ID ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// Sampled reports whether the span's trace is retained for retrieval.
func (s *Span) Sampled() bool { return s != nil && s.sampled }

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// SetStr annotates the span with a string value.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// SetError records err on the span (the last one wins); nil err is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.err = err.Error()
}

// End completes the span: the record goes to the flight recorder (when on)
// and, for sampled traces, into the tracer's trace store. End must be called
// at most once; a nil span ends for free.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	attrs := s.attrs
	if inst := s.tracer.cfg.Instance; inst != "" {
		attrs = append(attrs, Attr{Key: "instance", Value: inst})
		if s.tracer.cfg.Shard >= 0 {
			attrs = append(attrs, Attr{Key: "shard_id", Value: int64(s.tracer.cfg.Shard)})
		}
	}
	rec := SpanRecord{
		TraceID:     s.traceID,
		SpanID:      s.id,
		ParentID:    s.parent,
		Name:        s.name,
		StartMicros: s.start.UnixMicro(),
		DurMicros:   end.Sub(s.start).Microseconds(),
		Attrs:       attrs,
		Error:       s.err,
	}
	if s.sampled {
		s.tracer.keep(rec)
	}
	s.tracer.recordSpan(rec)
}
