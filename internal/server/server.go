// Package server exposes a walk engine over HTTP in four modes: engine
// (walk sampling, temporal personalized PageRank and temporal reachability
// over a preprocessed index), durable ingest (a WAL-backed live graph that
// POST /edges and POST /expire mutate), shard (one partition of a cluster)
// and router (the stateless front that merges a cluster's shards). The
// handlers are usable under any http.Server (or httptest) directly; Serve
// runs one with a graceful drain, as cmd/teaserve and cmd/tearouter do.
//
// Every mode is one shell (shell.go) plus its own handlers: the shell holds
// what the modes share and registers each mode's route table. It is built
// for operation under load: every query runs under the request's context
// (client disconnects abort in-flight walks), an optional per-request
// timeout bounds the worst-case query, and an optional max-in-flight
// semaphore sheds excess load with 503 + Retry-After instead of queueing
// unboundedly. All errors are structured JSON ({"error": "..."}) with
// meaningful status codes: 400 for malformed or out-of-range parameters,
// 501 for an endpoint another mode serves, 503 when shedding, 504 when the
// per-request deadline fires. Client-supplied sizing parameters (length,
// count, walks, topk) are capped (Config-overridable) and rejected with 400
// beyond the cap, before any proportional allocation happens.
//
// Every endpoint is instrumented: request counts, status-class counts, and
// latency histograms per endpoint, plus an in-flight gauge and shed/timeout
// counters, all published to a metrics.Registry (metrics.Default unless
// overridden) and exposed at GET /metrics (Prometheus text exposition
// format) and GET /metrics.json.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/tea-graph/tea/internal/apps"
	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/scrub"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/trace"
)

// Default caps on client-supplied sizing parameters; all are overridable via
// Config. Beyond a cap the request is rejected with 400 before any allocation
// happens — an unbounded length would otherwise make the engine allocate a
// Length-sized histogram per run (length=2000000000 is a ~16 GB allocation).
const (
	// defaultMaxWalksPerRequest bounds count on one /walk request.
	defaultMaxWalksPerRequest = 10000
	// defaultMaxWalkLength bounds length on one /walk request.
	defaultMaxWalkLength = 10000
	// defaultMaxPPRWalks bounds walks on one /ppr request.
	defaultMaxPPRWalks = 1_000_000
	// defaultMaxTopK bounds topk on one /ppr request.
	defaultMaxTopK = 10000
)

// requestIDHeader is X-Request-ID in the canonical form net/http stores
// header keys in; a key already in that form skips the allocating
// canonicalisation on every Get and Set.
const requestIDHeader = "X-Request-Id"

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response was produced. The response is unlikely to be
// seen, but the code keeps logs and tests unambiguous.
const statusClientClosedRequest = 499

// Config tunes the server's operational behavior. The zero value imposes no
// timeout and no concurrency limit, matching the pre-robustness behavior.
type Config struct {
	// RequestTimeout bounds one query's computation; 0 disables.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently executing walk queries; excess requests
	// are shed with 503 + Retry-After. 0 means unlimited.
	MaxInFlight int
	// RetryAfter is the Retry-After hint attached to shed requests. Every
	// mode defaults non-positive values to 1s, and the header rounds up to
	// whole seconds, so it is never "0" (which clients read as "retry
	// immediately").
	RetryAfter time.Duration

	// MaxWalkLength caps the length parameter of /walk; 0 means the
	// default (10000). Requests beyond the cap get 400.
	MaxWalkLength int
	// MaxWalkCount caps the count parameter of /walk; 0 means the
	// default (10000).
	MaxWalkCount int
	// MaxPPRWalks caps the walks parameter of /ppr; 0 means the default
	// (1000000).
	MaxPPRWalks int
	// MaxTopK caps the topk parameter of /ppr; 0 means the default (10000).
	MaxTopK int
	// MaxIngestBatch caps the number of edges one POST /edges may carry;
	// 0 means the default (100000). Only meaningful in durable-ingest mode.
	MaxIngestBatch int

	// Instance names this process in its observability output ("router",
	// "shard-2"): tea_build_info gains an instance label, spans are stamped
	// with it (via the tracer's own Config), and the logger carries it on
	// every record. Empty leaves everything unlabeled — without it, series
	// and spans merged from two shards are indistinguishable.
	Instance string
	// ShardID is the shard this process serves, stamped alongside Instance;
	// negative (or Instance empty) means the process serves no shard.
	ShardID int

	// SlowRequestThreshold, when positive, emits one structured warn record
	// (with the request's full cost breakdown) for every request slower than
	// it. 0 disables the slow-request log.
	SlowRequestThreshold time.Duration
	// TopRequests sizes the /debug/tea/top ring of recent requests; 0 means
	// 256.
	TopRequests int

	// Metrics receives the server's operational metrics and backs the
	// /metrics and /metrics.json endpoints; nil means metrics.Default (so
	// engine and out-of-core families rendered there too).
	Metrics *metrics.Registry

	// Trace, when non-nil and enabled, correlates requests end to end: every
	// request gets (or keeps) an X-Request-ID, a "server.request" root span
	// opens under that ID, and GET /debug/tea/trace + /debug/tea/flight
	// expose sampled traces and the flight recorder. A nil tracer costs one
	// ID mint per request and nothing else.
	Trace *trace.Tracer
	// Logger, when non-nil, receives one structured record per request with
	// endpoint, status, and latency; request and trace IDs ride along when
	// the handler chain is wrapped with trace.NewLogHandler.
	Logger *slog.Logger
}

// Server answers walk queries in the engine or the durable-ingest mode.
// Engines are safe for concurrent Run calls, so the handler needs no locking.
type Server struct {
	*shell
	eng *core.Engine

	// prepWalk, when non-nil, may adjust the WalkConfig before a /walk run
	// starts. Test seam: lets tests install a Visitor to observe and pace
	// in-flight runs.
	prepWalk func(*core.WalkConfig)

	// durable is the live graph of the durable-ingest mode (see ingest.go):
	// nil until recovery completes and SetDurable is called.
	durable atomic.Pointer[stream.DurableGraph]

	// recovering, while durable is nil, holds the latest recovery progress
	// so /readyz can report how far replay has come instead of a bare 503.
	recovering atomic.Pointer[stream.RecoveryProgress]

	// scrubber, when set, feeds storage health into /healthz: damage found
	// by a background integrity pass flips the body to "degraded".
	scrubber atomic.Pointer[scrub.Scrubber]
}

// SetScrubber attaches a background integrity scrubber whose damage map is
// reported on /healthz. Safe from any goroutine.
func (s *Server) SetScrubber(sc *scrub.Scrubber) { s.scrubber.Store(sc) }

// ReportRecoveryProgress publishes recovery progress for /readyz while the
// durable graph is still replaying its log (wire it as the Progress callback
// of stream.DurableConfig). Safe from any goroutine.
func (s *Server) ReportRecoveryProgress(p stream.RecoveryProgress) { s.recovering.Store(&p) }

// New builds a server around a preprocessed engine with default Config.
func New(eng *core.Engine) *Server { return NewWithConfig(eng, Config{}) }

// NewWithConfig builds a server around a preprocessed engine with explicit
// operational limits. The ingest endpoints answer 501.
func NewWithConfig(eng *core.Engine, cfg Config) *Server {
	s := &Server{eng: eng}
	s.shell = newShell(cfg, []route{
		{"GET /healthz", "healthz", false, s.handleHealth},
		{"GET /readyz", "readyz", false, handleReady},
		{"POST /edges", "edges", false, notImplemented(errQueryOnly)},
		{"POST /expire", "expire", false, notImplemented(errQueryOnly)},
		{"GET /stats", "stats", false, s.handleStats},
		{"GET /walk", "walk", true, s.handleWalk},
		{"GET /ppr", "ppr", true, s.handlePPR},
		{"GET /reach", "reach", true, s.handleReach},
	})
	return s
}

// handleHealth implements GET /healthz — liveness, so always 200 (the
// process is up and answering). The body carries storage health: a degraded
// write path (disk full, failed fsync) or scrub-detected damage flips
// "status" to "degraded" with a "storage" section naming the trouble, so
// operators and tests see corruption without the process being killed by
// its liveness probe.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	storage := map[string]any{}
	if d := s.durable.Load(); d != nil {
		if err := d.Err(); err != nil {
			storage["write_path"] = err.Error()
			storage["read_only"] = true
		}
	}
	if sc := s.scrubber.Load(); sc != nil {
		if dmg := sc.Damage(); len(dmg) > 0 {
			storage["scrub"] = dmg
		}
	}
	if len(storage) > 0 {
		writeJSON(w, http.StatusOK, map[string]any{"status": "degraded", "storage": storage})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type statsResponse struct {
	Vertices    int    `json:"vertices"`
	Edges       int    `json:"edges"`
	MaxDegree   int    `json:"max_degree"`
	TimeLo      int64  `json:"time_min"`
	TimeHi      int64  `json:"time_max"`
	Application string `json:"application"`
	Sampler     string `json:"sampler"`
	IndexBytes  int64  `json:"index_bytes"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	g := s.eng.Graph()
	lo, hi := g.TimeRange()
	writeJSON(w, http.StatusOK, statsResponse{
		Vertices:    g.NumVertices(),
		Edges:       g.NumEdges(),
		MaxDegree:   g.MaxDegree(),
		TimeLo:      int64(lo),
		TimeHi:      int64(hi),
		Application: s.eng.App().Name,
		Sampler:     s.eng.Sampler().Name(),
		IndexBytes:  s.eng.MemoryBytes(),
	})
}

// walkQuery is a validated /walk request.
type walkQuery struct {
	from          temporal.Vertex
	length, count int
	seed          uint64
}

// parseWalk validates the /walk parameters every walk producer shares against
// the graph's vertex count and the configured size caps.
func (sh *shell) parseWalk(q url.Values, numVertices int) (walkQuery, error) {
	from, err := vertexParam(q, "from", numVertices)
	if err != nil {
		return walkQuery{}, err
	}
	length, err := intParam(q, "length", 80)
	if err != nil {
		return walkQuery{}, err
	}
	count, err := intParam(q, "count", 1)
	if err != nil {
		return walkQuery{}, err
	}
	seed, err := intParam(q, "seed", 1)
	if err != nil {
		return walkQuery{}, err
	}
	if length <= 0 || count <= 0 {
		return walkQuery{}, fmt.Errorf("length and count must be positive")
	}
	if length > sh.cfg.MaxWalkLength {
		return walkQuery{}, fmt.Errorf("length %d exceeds per-request limit %d", length, sh.cfg.MaxWalkLength)
	}
	if count > sh.cfg.MaxWalkCount {
		return walkQuery{}, fmt.Errorf("count %d exceeds per-request limit %d", count, sh.cfg.MaxWalkCount)
	}
	return walkQuery{from: from, length: length, count: count, seed: uint64(seed)}, nil
}

func (s *Server) handleWalk(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	wq, err := s.parseWalk(q, s.eng.Graph().NumVertices())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	cfg := core.WalkConfig{
		WalksPerVertex: wq.count,
		Length:         wq.length,
		StartVertices:  []temporal.Vertex{wq.from},
		Seed:           wq.seed,
		KeepPaths:      true,
	}
	if s.prepWalk != nil {
		c := cfg // a copy, so that cfg stays off the heap when there is no hook
		s.prepWalk(&c)
		cfg = c
	}
	res, err := s.eng.RunContext(r.Context(), cfg)
	if err != nil {
		writeErr(w, runStatus(err), err)
		return
	}
	rc := reqcost.From(r.Context())
	rc.AddEngine(res.Cost)
	rep := walkReply{from: wq.from, paths: res.Paths, detail: costDetail(q, rc, res.Duration)}
	writeWalkReply(w, &rep,
		costNum("steps", res.Cost.Steps),
		costRatio("edges_per_step", res.Cost.EdgesPerStep()),
		costText("duration", res.Duration.String()))
}

// costDetail is the request's cost ledger with the run's wall time, for a
// /walk that asked for it with cost=1; nil otherwise.
func costDetail(q url.Values, rc *reqcost.Collector, wall time.Duration) *reqcost.Cost {
	if q.Get("cost") != "1" || rc == nil {
		return nil
	}
	detail := rc.Snapshot()
	detail.WallMicros = wall.Microseconds()
	return &detail
}

type pprResponse struct {
	From   temporal.Vertex `json:"from"`
	Alpha  float64         `json:"alpha"`
	Scores []apps.PPRScore `json:"scores"`
}

func (s *Server) handlePPR(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := vertexParam(q, "from", s.eng.Graph().NumVertices())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	walks, err := intParam(q, "walks", 10000)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if walks <= 0 || walks > s.cfg.MaxPPRWalks {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("walks must be in (0, %d]", s.cfg.MaxPPRWalks))
		return
	}
	alpha, err := floatParam(q, "alpha", 0.15)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if alpha <= 0 || alpha >= 1 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("alpha must be in (0, 1)"))
		return
	}
	topK, err := intParam(q, "topk", 20)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if topK <= 0 || topK > s.cfg.MaxTopK {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("topk must be in (0, %d]", s.cfg.MaxTopK))
		return
	}
	seed, err := intParam(q, "seed", 1)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	scores, err := apps.TemporalPPRContext(r.Context(), s.eng, from, apps.PPRConfig{
		Alpha: alpha,
		Walks: walks,
		Seed:  uint64(seed),
	})
	if err != nil {
		writeErr(w, runStatus(err), err)
		return
	}
	if len(scores) > topK {
		scores = scores[:topK]
	}
	writeJSON(w, http.StatusOK, pprResponse{From: from, Alpha: alpha, Scores: scores})
}

type reachResponse struct {
	From      temporal.Vertex   `json:"from"`
	After     int64             `json:"after"`
	Count     int               `json:"count"`
	Reachable []temporal.Vertex `json:"reachable"`
	Truncated bool              `json:"truncated,omitempty"`
}

func (s *Server) handleReach(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := vertexParam(q, "from", s.eng.Graph().NumVertices())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	after, err := int64Param(q, "after", int64(temporal.MinTime))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	set, err := apps.ReachableSetContext(r.Context(), s.eng.Graph(), from, temporal.Time(after))
	if err != nil {
		writeErr(w, runStatus(err), err)
		return
	}
	out := reachResponse{From: from, After: after, Count: len(set), Reachable: set}
	const cap = 10000
	if len(out.Reachable) > cap {
		out.Reachable = out.Reachable[:cap]
		out.Truncated = true
	}
	writeJSON(w, http.StatusOK, out)
}

// runStatus maps a query-execution error onto an HTTP status: deadline hits
// are 504 (the server's own timeout fired), client disconnects are 499, and
// anything else (e.g. a recovered panic) is a 500.
func runStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

func vertexParam(q url.Values, name string, numVertices int) (temporal.Vertex, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing required parameter %q", name)
	}
	id, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	if int(id) >= numVertices {
		return 0, fmt.Errorf("vertex %d outside graph with %d vertices", id, numVertices)
	}
	return temporal.Vertex(id), nil
}

func intParam(q url.Values, name string, def int) (int, error) {
	v, err := int64Param(q, name, int64(def))
	return int(v), err
}

func int64Param(q url.Values, name string, def int64) (int64, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: not an integer: %q", name, raw)
	}
	return v, nil
}

func floatParam(q url.Values, name string, def float64) (float64, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: not a number: %q", name, raw)
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
