// Shard mode: the HTTP face of one internal/shard node. A ShardServer serves
// the same GET /walk surface as the single-process server, but answers only
// with the walks whose source vertex its shard owns — walk ids are positions
// in the global walk list, so a stateless Router (router.go) can merge the
// partial responses of every shard into exactly the single-process response.
//
// Failure semantics: a peer shard going down mid-walk surfaces as a
// *wire.PeerError from the coordinator, which maps to 503 + Retry-After here
// (the cluster is incomplete; the client should retry once the peer is back),
// while deliberate refusals (*wire.RemoteError, e.g. a cluster-config
// mismatch) are 500s — retrying cannot fix a misconfigured cluster.
package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/trace"
)

// errShardMode is returned by endpoints that need the whole graph resident
// (PPR's visit accounting, reachability's BFS) and so are not served by one
// shard.
var errShardMode = errors.New("endpoint not available in shard mode; use a single-process teaserve")

// ShardServer is the HTTP handler of one shard process: /walk runs the
// scatter-gather coordinator over this node's share of the request, /stats
// describes the partition, and the operational endpoints (health, metrics,
// tracing) are the regular server's.
type ShardServer struct {
	base   *Server // instrumentation + ops endpoints; its own mux is never served
	node   *shard.Node
	caller shard.StepCaller
	mux    *http.ServeMux
}

// NewShard builds the HTTP server for one shard node. caller delivers step
// batches to peer shards (shard.Peers over TCP in production, shard.InProcess
// in tests); cfg carries the same operational limits as the single-process
// server.
func NewShard(node *shard.Node, caller shard.StepCaller, cfg Config) *ShardServer {
	base := NewWithConfig(nil, cfg)
	ss := &ShardServer{base: base, node: node, caller: caller, mux: http.NewServeMux()}
	ss.mux.HandleFunc("GET /healthz", base.instrument("healthz", ss.handleHealth))
	ss.mux.HandleFunc("GET /readyz", base.instrument("readyz", base.handleReady))
	ss.mux.HandleFunc("GET /stats", base.instrument("stats", ss.handleStats))
	ss.mux.HandleFunc("GET /walk", base.instrument("walk", base.limited(ss.handleWalk)))
	ss.mux.HandleFunc("GET /ppr", base.instrument("ppr", ss.handleUnavailable))
	ss.mux.HandleFunc("GET /reach", base.instrument("reach", ss.handleUnavailable))
	ss.mux.HandleFunc("GET /metrics", base.handleMetrics)
	ss.mux.HandleFunc("GET /metrics.json", base.handleMetricsJSON)
	ss.mux.HandleFunc("GET /debug/tea/trace", base.handleTrace)
	ss.mux.HandleFunc("GET /debug/tea/flight", base.handleFlight)
	ss.mux.HandleFunc("GET /debug/tea/top", base.handleTop)
	return ss
}

// Handler returns the routable HTTP handler.
func (ss *ShardServer) Handler() http.Handler { return ss.mux }

// peerSnapshotter is implemented by step callers that keep a health-aware
// replica table (shard.Peers, shard.ReplicaPeers).
type peerSnapshotter interface {
	Snapshot() map[int][]shard.ReplicaStatus
}

// handleHealth is the single-process /healthz plus, when the step caller
// keeps one, this shard's local view of every peer partition's replicas:
// breaker state, consecutive failures, latency EWMA, open connections. The
// view is per-process by design — each shard's breakers see their own
// traffic — so comparing /healthz across shards localizes asymmetric
// network trouble.
func (ss *ShardServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	ps, ok := ss.caller.(peerSnapshotter)
	if !ok {
		ss.base.handleHealth(w, r)
		return
	}
	peers := map[string][]shard.ReplicaStatus{}
	for id, sts := range ps.Snapshot() {
		peers[strconv.Itoa(id)] = sts
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "shard": ss.node.ShardID(), "peers": peers,
	})
}

func (ss *ShardServer) handleWalk(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	wq, err := ss.base.parseWalk(q, ss.node.NumVertices())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := ss.node.RunWalks(r.Context(), ss.caller, shard.WalkRequest{
		Sources:        []temporal.Vertex{wq.from},
		WalksPerVertex: wq.count,
		Length:         wq.length,
		Seed:           wq.seed,
		KeepPaths:      true,
		RequestID:      trace.RequestID(r.Context()),
		CollectSpans:   r.Header.Get("X-Trace-Sampled") == "1",
	})
	if err != nil {
		ss.writeRunErr(w, err)
		return
	}
	rc := reqcost.From(r.Context())
	rc.AddEngine(res.Cost)
	rep := walkReply{
		from:       wq.from,
		partial:    true,
		shard:      ss.node.ShardID(),
		partitions: ss.node.Partitions(),
		walkIDs:    res.WalkIDs,
		paths:      res.Paths,
		spans:      res.Spans,
	}
	// A shard that owns none of the walks says so with [], not null.
	if rep.walkIDs == nil {
		rep.walkIDs = []int{}
	}
	if rep.paths == nil {
		rep.paths = []core.Path{}
	}
	if q.Get("cost") == "1" && rc != nil {
		detail := rc.Snapshot()
		detail.WallMicros = res.Duration.Microseconds()
		rep.detail = &detail
	}
	writeWalkReply(w, &rep,
		costNum("steps", res.Cost.Steps),
		costNum("edges_evaluated", res.Cost.EdgesEvaluated),
		costText("duration", res.Duration.String()),
		costNum("rounds", int64(res.Rounds)),
		costNum("migrations", res.Migrations),
		costNum("frames", res.Frames),
		costNum("local_steps", res.LocalSteps),
		costNum("bytes_sent", res.BytesSent))
}

// writeRunErr maps a coordinator error onto HTTP: a transient peer failure is
// 503 + Retry-After (the shard itself is healthy; the cluster is momentarily
// incomplete), everything else follows the single-process mapping.
func (ss *ShardServer) writeRunErr(w http.ResponseWriter, err error) {
	var pe *wire.PeerError
	if errors.As(err, &pe) {
		w.Header().Set("Retry-After", retryAfterSecs(ss.base.cfg.RetryAfter))
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	writeErr(w, runStatus(err), err)
}

type shardStatsResponse struct {
	Shard      int   `json:"shard"`
	Partitions int   `json:"partitions"`
	Vertices   int   `json:"vertices"`
	OwnedEdges int   `json:"owned_edges"`
	IndexBytes int64 `json:"index_bytes"`
}

func (ss *ShardServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, shardStatsResponse{
		Shard:      ss.node.ShardID(),
		Partitions: ss.node.Partitions(),
		Vertices:   ss.node.NumVertices(),
		OwnedEdges: ss.node.OwnedEdges(),
		IndexBytes: ss.node.MemoryBytes(),
	})
}

func (ss *ShardServer) handleUnavailable(w http.ResponseWriter, _ *http.Request) {
	writeErr(w, http.StatusNotImplemented, errShardMode)
}

// retryAfterSecs renders a Retry-After duration in whole seconds, rounded up
// so the emitted header is never "0".
func retryAfterSecs(d time.Duration) string {
	return strconv.Itoa(int((d + time.Second - 1) / time.Second))
}
