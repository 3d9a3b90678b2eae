package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/stats"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/vfs"
)

// The durable-ingest serving mode: instead of a preprocessed read-only
// engine, the server fronts a stream.DurableGraph — a WAL-backed live graph.
// POST /edges and POST /expire mutate it; GET /walk and GET /stats read it
// (walks run concurrently with ingest); GET /readyz distinguishes "still
// recovering" from "serving". The durable graph arrives asynchronously via
// SetDurable so the listener can bind immediately while recovery replays the
// log — until then every durable endpoint sheds with 503 + Retry-After, and
// after a WAL failure flips the graph into its sticky degraded state, writes
// (but not reads) shed the same way.

// maxIngestBatch bounds edges per POST /edges request.
const maxIngestBatch = 100_000

// maxIngestBody bounds the JSON body size accepted by the ingest endpoints;
// generous for a full-size batch, small enough to shrug off abuse.
const maxIngestBody = 16 << 20

// errIngestOnly answers query endpoints that need a preprocessed engine.
var errIngestOnly = errors.New("endpoint unavailable in durable-ingest mode (serving a live stream, not a preprocessed index)")

// errQueryOnly answers ingest endpoints on a read-only query server.
var errQueryOnly = errors.New("server is not in durable-ingest mode (start with -wal-dir to ingest)")

// NewDurable builds a server in durable-ingest mode. The durable graph is
// attached later with SetDurable (typically after crash recovery completes
// in the background); until then /readyz reports recovering and write
// endpoints shed. The endpoints that need a preprocessed index answer 501.
func NewDurable(cfg Config) *Server {
	s := &Server{}
	s.shell = newShell(cfg, []route{
		{"GET /healthz", "healthz", false, s.handleHealth},
		{"GET /readyz", "readyz", false, s.handleDurableReady},
		{"POST /edges", "edges", false, s.handleIngestEdges},
		{"POST /expire", "expire", false, s.handleIngestExpire},
		{"GET /stats", "stats", false, s.handleDurableStats},
		{"GET /walk", "walk", true, s.handleDurableWalk},
		{"GET /ppr", "ppr", true, notImplemented(errIngestOnly)},
		{"GET /reach", "reach", true, notImplemented(errIngestOnly)},
	})
	return s
}

// SetDurable attaches the recovered durable graph and flips the server
// ready. Safe to call at most once, from any goroutine.
func (s *Server) SetDurable(d *stream.DurableGraph) { s.durable.Store(d) }

// durableForWrite resolves the durable graph for a mutation, shedding while
// recovering and while degraded. Degradation caused by a full disk is 507
// Insufficient Storage (the truthful status); everything else is 503. Both
// carry Retry-After — the heal loop clears the condition without a restart.
// A nil return means the response was sent.
func (s *Server) durableForWrite(w http.ResponseWriter) *stream.DurableGraph {
	d := s.durableForRead(w)
	if d == nil {
		return nil
	}
	if err := d.Err(); err != nil {
		s.retryErr(w, ingestStatus(err), err)
		return nil
	}
	return d
}

// durableForRead resolves the durable graph for a query, shedding with 503 +
// Retry-After — the load shedder's contract, so clients back off instead of
// hammering a server still replaying its log — while recovering. Reads are
// served even while degraded (the in-memory graph is intact).
func (s *Server) durableForRead(w http.ResponseWriter) *stream.DurableGraph {
	d := s.durable.Load()
	if d == nil {
		s.retryErr(w, http.StatusServiceUnavailable, errors.New("recovering: WAL replay in progress"))
		return nil
	}
	return d
}

// handleDurableReady implements GET /readyz: ready once recovery has
// completed and SetDurable ran, and degraded (still 200 — reads work)
// thereafter if the WAL failed. While recovering, the 503 body carries
// progress (chosen snapshot, segments replayed, records applied) so an
// operator watching a long replay can tell a working recovery from a hung
// one.
func (s *Server) handleDurableReady(w http.ResponseWriter, _ *http.Request) {
	d := s.durable.Load()
	if d == nil {
		s.retryAfter(w)
		body := map[string]any{"status": "recovering"}
		if p := s.recovering.Load(); p != nil {
			body["snapshot_lsn"] = p.SnapshotLSN
			body["segments_replayed"] = p.SegmentsDone
			body["segments_total"] = p.SegmentsTotal
			body["records_applied"] = p.RecordsApplied
		}
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	ri := d.Recovery()
	status := "ready"
	if d.Err() != nil {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":                   status,
		"recovery_duration":        ri.Duration.String(),
		"recovery_replayed":        ri.Replayed,
		"recovery_snapshot_lsn":    ri.SnapshotLSN,
		"recovery_truncated_bytes": ri.TruncatedBytes,
	})
}

// ingestEdge is the wire form of one edge in a POST /edges batch.
type ingestEdge struct {
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
	T   int64  `json:"t"`
}

type ingestRequest struct {
	Edges []ingestEdge `json:"edges"`
}

type ingestResponse struct {
	Appended int   `json:"appended"`
	Edges    int   `json:"edges"`
	Frontier int64 `json:"frontier"`
}

// handleIngestEdges implements POST /edges: a JSON batch of strictly newer
// edges, WAL-logged before it is applied. Non-increasing timestamps and
// vertex ids out of range (refused before the WAL append) are the client's
// bug → 400; an unrecovered or degraded server sheds → 503.
func (s *Server) handleIngestEdges(w http.ResponseWriter, r *http.Request) {
	d := s.durableForWrite(w)
	if d == nil {
		return
	}
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("body: %v", err))
		return
	}
	// A second object after the first would otherwise be dropped unread
	// while the reply reports success.
	if _, err := dec.Token(); err != io.EOF {
		writeErr(w, http.StatusBadRequest, errors.New("body: data after the JSON object"))
		return
	}
	if len(req.Edges) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Edges) > maxIngestBatch {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d edges exceeds per-request limit %d", len(req.Edges), maxIngestBatch))
		return
	}
	edges := make([]temporal.Edge, len(req.Edges))
	for i, e := range req.Edges {
		edges[i] = temporal.Edge{Src: temporal.Vertex(e.Src), Dst: temporal.Vertex(e.Dst), Time: temporal.Time(e.T)}
	}
	if err := d.AppendBatch(edges); err != nil {
		s.writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Appended: len(edges),
		Edges:    d.NumEdges(),
		Frontier: int64(d.Frontier()),
	})
}

type expireResponse struct {
	Dropped int `json:"dropped"`
	Edges   int `json:"edges"`
}

// handleIngestExpire implements POST /expire?before=<t>: drop every edge
// older than the horizon, WAL-logged like any other mutation.
func (s *Server) handleIngestExpire(w http.ResponseWriter, r *http.Request) {
	d := s.durableForWrite(w)
	if d == nil {
		return
	}
	raw := r.URL.Query().Get("before")
	if raw == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing required parameter \"before\""))
		return
	}
	horizon, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("parameter \"before\": %v", err))
		return
	}
	dropped, err := d.ExpireBefore(temporal.Time(horizon))
	if err != nil {
		s.writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, expireResponse{Dropped: dropped, Edges: d.NumEdges()})
}

// ingestStatus maps a durable-write error to an HTTP status: client bugs
// (stale timestamps, unknown edges, vertex ids out of range) are 400, a full disk is 507 Insufficient
// Storage, other infrastructure failures are 503.
func ingestStatus(err error) int {
	switch {
	case errors.Is(err, stream.ErrStaleBatch), errors.Is(err, stream.ErrEdgeNotFound), errors.Is(err, stream.ErrVertexRange):
		return http.StatusBadRequest
	case vfs.IsNoSpace(err):
		return http.StatusInsufficientStorage
	case errors.Is(err, stream.ErrDegraded), errors.Is(err, stream.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeIngestErr renders a durable-write failure, attaching Retry-After to
// the retryable statuses (503, 507) so clients back off and retry — the heal
// loop restores the write path without a restart.
func (s *Server) writeIngestErr(w http.ResponseWriter, err error) {
	status := ingestStatus(err)
	if status == http.StatusServiceUnavailable || status == http.StatusInsufficientStorage {
		s.retryErr(w, status, err)
		return
	}
	writeErr(w, status, err)
}

// handleDurableStats serves GET /stats from the live graph.
func (s *Server) handleDurableStats(w http.ResponseWriter, _ *http.Request) {
	d := s.durableForRead(w)
	if d == nil {
		return
	}
	st := d.Stats()
	writeJSON(w, http.StatusOK, statsResponse{
		Vertices:    st.Vertices,
		Edges:       st.Edges,
		MaxDegree:   st.MaxDegree,
		TimeLo:      int64(st.TimeLo),
		TimeHi:      int64(st.TimeHi),
		Application: "ingest",
		Sampler:     "stream/" + st.Weight,
		IndexBytes:  st.MemoryBytes,
	})
}

// handleDurableWalk serves GET /walk from the live graph: seeded temporal
// walks under the read lock, concurrent with ingest. The request context is
// checked between walks, so a deadline answers 504 and a disconnected client
// stops the work; the steps are billed to the request's cost ledger.
func (s *Server) handleDurableWalk(w http.ResponseWriter, r *http.Request) {
	d := s.durableForRead(w)
	if d == nil {
		return
	}
	q := r.URL.Query()
	wq, err := s.parseWalk(q, d.NumVertices())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	start, err := int64Param(q, "start", int64(temporal.MinTime))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	paths := make([]core.Path, wq.count)
	began := time.Now()
	steps := 0
	for i := range paths {
		if err := r.Context().Err(); err != nil {
			writeErr(w, runStatus(err), err)
			return
		}
		verts, times := d.WalkSeeded(wq.from, temporal.Time(start), wq.length, wq.seed+uint64(i))
		paths[i] = core.Path{Vertices: verts, Times: times}
		steps += len(times)
	}
	reqcost.From(r.Context()).AddEngine(stats.Cost{Steps: int64(steps), WalksStarted: int64(len(paths))})
	writeWalkReply(w, &walkReply{from: wq.from, paths: paths},
		costNum("steps", int64(steps)),
		costText("duration", time.Since(began).String()))
}
