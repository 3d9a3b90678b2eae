package server

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/trace"
)

// shell is the state every serving mode shares: the defaulted Config, the
// logger, the in-flight semaphore, the /debug/tea/top ring and the
// uptime/shed/timeout series, plus the instrumentation and load-shedding
// wrappers, the ops handlers and the Retry-After writer. A mode is a shell
// plus its own handlers, registered through one route table.
type shell struct {
	cfg      Config
	mux      *http.ServeMux
	inflight chan struct{}
	logger   *slog.Logger
	started  time.Time
	top      *reqcost.Top

	inflightGauge *metrics.Gauge
	shedTotal     *metrics.Counter
	timeoutTotal  *metrics.Counter
	uptime        *metrics.Gauge

	// snapshot is what /metrics and /metrics.json render: this process's
	// registry by default, the federated cluster at the router.
	snapshot func(*http.Request) (*metrics.Snapshot, error)
}

// route is one row of a mode's route table. The handler is instrumented
// under endpoint; a limited row also runs under the in-flight semaphore and
// the per-request timeout.
type route struct {
	pattern  string
	endpoint string
	limited  bool
	handler  http.HandlerFunc
}

// newShell defaults cfg, builds the shared state and registers the mode's
// routes followed by the ops routes: /metrics, /metrics.json and the three
// /debug/tea endpoints, which are never instrumented.
func newShell(cfg Config, routes []route) *shell {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxWalkLength <= 0 {
		cfg.MaxWalkLength = defaultMaxWalkLength
	}
	if cfg.MaxWalkCount <= 0 {
		cfg.MaxWalkCount = defaultMaxWalksPerRequest
	}
	if cfg.MaxPPRWalks <= 0 {
		cfg.MaxPPRWalks = defaultMaxPPRWalks
	}
	if cfg.MaxTopK <= 0 {
		cfg.MaxTopK = defaultMaxTopK
	}
	if cfg.MaxIngestBatch <= 0 {
		cfg.MaxIngestBatch = defaultMaxIngestBatch
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default
	}
	sh := &shell{
		cfg: cfg, mux: http.NewServeMux(), logger: cfg.Logger, started: time.Now(),
		top: reqcost.NewTop(topRequests),
	}
	sh.snapshot = sh.localSnapshot
	if cfg.Instance != "" && sh.logger != nil {
		sh.logger = sh.logger.With(slog.String("instance", cfg.Instance))
		if cfg.ShardID >= 0 {
			sh.logger = sh.logger.With(slog.Int("shard", cfg.ShardID))
		}
	}
	reg := cfg.Metrics
	sh.inflightGauge = reg.Gauge("tea_server_inflight")
	sh.shedTotal = reg.Counter("tea_server_shed_total")
	sh.timeoutTotal = reg.Counter("tea_server_timeout_total")
	sh.uptime = reg.Gauge("tea_uptime_seconds")
	buildInfo := fmt.Sprintf("tea_build_info{version=%q,go_version=%q", buildVersion(), runtime.Version())
	if cfg.Instance != "" {
		buildInfo += fmt.Sprintf(",instance=%q", cfg.Instance)
		if cfg.ShardID >= 0 {
			buildInfo += fmt.Sprintf(",shard_id=%q", strconv.Itoa(cfg.ShardID))
		}
	}
	reg.Gauge(buildInfo + "}").Set(1)
	if cfg.MaxInFlight > 0 {
		sh.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	for _, rt := range routes {
		h := rt.handler
		if rt.limited {
			h = sh.limited(h)
		}
		sh.mux.HandleFunc(rt.pattern, sh.instrument(rt.endpoint, h))
	}
	sh.mux.HandleFunc("GET /metrics", sh.handleMetrics)
	sh.mux.HandleFunc("GET /metrics.json", sh.handleMetricsJSON)
	sh.mux.HandleFunc("GET /debug/tea/trace", sh.handleTrace)
	sh.mux.HandleFunc("GET /debug/tea/flight", sh.handleFlight)
	sh.mux.HandleFunc("GET /debug/tea/top", sh.handleTop)
	return sh
}

// Handler returns the routable HTTP handler.
func (sh *shell) Handler() http.Handler { return sh.mux }

// statusWriter captures the response status for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// statusClasses label the per-endpoint response counters.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// statusClass buckets a status code: its index in statusClasses.
func statusClass(status int) int {
	switch {
	case status >= 500:
		return 3
	case status >= 400:
		return 2
	case status >= 300:
		return 1
	default:
		return 0
	}
}

// instrument wraps an endpoint with request counting, an in-flight gauge, a
// latency histogram, and per-status-class response counters; 503 and 504
// responses additionally feed the shed and timeout counters wherever they
// were produced.
//
// It is also where request correlation starts: the client's X-Request-ID is
// adopted (or one is minted) and echoed back, stamped on the request context
// for structured logs, and — when tracing is enabled — doubles as the trace
// ID of the request's root span, so /debug/tea/trace?id=<X-Request-ID>
// resolves directly.
func (sh *shell) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reg, tracer := sh.cfg.Metrics, sh.cfg.Trace
	requests := reg.Counter(fmt.Sprintf("tea_server_requests_total{endpoint=%q}", endpoint))
	latency := reg.Histogram(fmt.Sprintf("tea_server_request_seconds{endpoint=%q}", endpoint))
	var responses [len(statusClasses)]*metrics.Counter
	for i, class := range statusClasses {
		responses[i] = reg.Counter(fmt.Sprintf("tea_server_responses_total{endpoint=%q,class=%q}", endpoint, class))
	}
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		sh.inflightGauge.Add(1)
		defer sh.inflightGauge.Add(-1)

		reqID := r.Header.Get(requestIDHeader)
		if reqID == "" {
			reqID = trace.GenID()
		}
		w.Header().Set(requestIDHeader, reqID)
		ctx := trace.WithRequestID(r.Context(), reqID)
		var sp *trace.Span
		if tracer.Enabled() {
			ctx = trace.WithTracer(ctx, tracer)
			if r.Header.Get("X-Trace-Sampled") == "1" {
				// An upstream process (the router) already sampled this
				// request; retain this process's part of the trace too.
				ctx, sp = tracer.StartRootSampled(ctx, "server.request", reqID)
			} else {
				ctx, sp = tracer.StartRoot(ctx, "server.request", reqID)
			}
			sp.SetStr("endpoint", endpoint)
			sp.SetStr("method", r.Method)
			sp.SetStr("path", r.URL.RequestURI())
		}
		ctx, col := reqcost.Attach(ctx)
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		latency.ObserveSince(start)
		if sp != nil {
			sp.SetInt("status", int64(sw.status))
			sp.End()
		}
		responses[statusClass(sw.status)].Inc()
		switch sw.status {
		case http.StatusServiceUnavailable:
			sh.shedTotal.Inc()
		case http.StatusGatewayTimeout:
			sh.timeoutTotal.Inc()
		}
		cost := col.Snapshot()
		cost.WallMicros = elapsed.Microseconds()
		sh.top.Record(reqcost.Record{
			RequestID:   reqID,
			Endpoint:    endpoint,
			Status:      sw.status,
			StartMicros: start.UnixMicro(),
			WallMicros:  elapsed.Microseconds(),
			Cost:        cost,
		})
		if sh.logger != nil {
			sh.logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("endpoint", endpoint),
				slog.String("method", r.Method),
				slog.String("path", r.URL.RequestURI()),
				slog.Int("status", sw.status),
				slog.Duration("elapsed", elapsed),
			)
			if sh.cfg.SlowRequestThreshold > 0 && elapsed > sh.cfg.SlowRequestThreshold {
				sh.logger.LogAttrs(ctx, slog.LevelWarn, "slow request",
					slog.String("endpoint", endpoint),
					slog.String("path", r.URL.RequestURI()),
					slog.Int("status", sw.status),
					slog.Duration("elapsed", elapsed),
					slog.Duration("threshold", sh.cfg.SlowRequestThreshold),
					slog.Int64("steps", cost.Steps),
					slog.Int64("edges_evaluated", cost.EdgesEvaluated),
					slog.Int64("migrations", cost.Migrations),
					slog.Int64("migration_bytes", cost.MigrationBytes),
					slog.Int64("cache_hits", cost.CacheHits),
					slog.Int64("cache_misses", cost.CacheMisses),
					slog.Int64("device_bytes", cost.DeviceBytes),
					slog.Int64("read_retries", cost.ReadRetries),
				)
			}
		}
	}
}

// limited wraps a query handler with the load-shedding semaphore and the
// per-request timeout.
func (sh *shell) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if sh.inflight != nil {
			select {
			case sh.inflight <- struct{}{}:
				defer func() { <-sh.inflight }()
			default:
				sh.retryErr(w, http.StatusServiceUnavailable,
					fmt.Errorf("server at capacity (%d queries in flight); retry later", sh.cfg.MaxInFlight))
				return
			}
		}
		if sh.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), sh.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// retryAfter sets the Retry-After hint every mode attaches when it asks a
// client to come back: RetryAfter in whole seconds, rounded up so the header
// is never "0" (which clients read as "retry immediately").
func (sh *shell) retryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(sh.cfg.RetryAfter.Seconds()))))
}

// retryErr answers status with err and the Retry-After hint.
func (sh *shell) retryErr(w http.ResponseWriter, status int, err error) {
	sh.retryAfter(w)
	writeErr(w, status, err)
}

// handleReady implements GET /readyz for the modes that serve as soon as
// they are built.
func handleReady(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// notImplemented answers 501 with err: an endpoint another mode serves.
func notImplemented(err error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) { writeErr(w, http.StatusNotImplemented, err) }
}

// handleTop implements GET /debug/tea/top: the k (default 20) most expensive
// recent requests by wall time, each with its full cost breakdown — the
// first stop when "something was slow a minute ago" and the trace was not
// sampled.
func (sh *shell) handleTop(w http.ResponseWriter, r *http.Request) {
	k, err := intParam(r.URL.Query(), "k", 20)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, map[string]any{"top": sh.top.Top(k)})
}

// localSnapshot is this process's registry, with the uptime gauge refreshed
// at render time so it is accurate in every scrape without a background
// ticker.
func (sh *shell) localSnapshot(*http.Request) (*metrics.Snapshot, error) {
	sh.uptime.Set(time.Since(sh.started).Seconds())
	return sh.cfg.Metrics.Snapshot(), nil
}

// metricsSnapshot resolves the snapshot /metrics and /metrics.json render.
// Cache-Control: no-store keeps intermediaries from serving a stale scrape.
// Only a federation can fail (a shard the router cannot scrape): that is a
// 503 with Retry-After, already written when it returns nil.
func (sh *shell) metricsSnapshot(w http.ResponseWriter, r *http.Request) *metrics.Snapshot {
	w.Header().Set("Cache-Control", "no-store")
	snap, err := sh.snapshot(r)
	if err != nil {
		sh.retryErr(w, http.StatusServiceUnavailable, fmt.Errorf("metrics federation: %v", err))
		return nil
	}
	return snap
}

// handleMetrics renders the snapshot in the Prometheus text exposition
// format.
func (sh *shell) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if snap := sh.metricsSnapshot(w, r); snap != nil {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = snap.WritePrometheus(w)
	}
}

// handleMetricsJSON renders the same snapshot as JSON.
func (sh *shell) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	if snap := sh.metricsSnapshot(w, r); snap != nil {
		writeJSON(w, http.StatusOK, snap)
	}
}
