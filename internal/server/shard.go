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
// describes the partition, and the ops endpoints are the shell's.
type ShardServer struct {
	*shell
	node   *shard.Node
	caller shard.StepCaller
}

// NewShard builds the HTTP server for one shard node. caller delivers step
// batches to peer shards (shard.Peers over TCP in production, shard.InProcess
// in tests); cfg carries the same operational limits as the single-process
// server.
func NewShard(node *shard.Node, caller shard.StepCaller, cfg Config) *ShardServer {
	ss := &ShardServer{node: node, caller: caller}
	ss.shell = newShell(cfg, []route{
		{"GET /healthz", "healthz", false, ss.handleHealth},
		{"GET /readyz", "readyz", false, handleReady},
		{"GET /stats", "stats", false, ss.handleStats},
		{"GET /walk", "walk", true, ss.handleWalk},
		{"GET /ppr", "ppr", false, notImplemented(errShardMode)},
		{"GET /reach", "reach", false, notImplemented(errShardMode)},
	})
	return ss
}

// peerSnapshotter is implemented by step callers that keep a health-aware
// replica table (shard.ReplicaPeers, which shard.Peers aliases).
type peerSnapshotter interface {
	Snapshot() map[int][]shard.ReplicaStatus
}

// handleHealth answers {"status":"ok"} plus, when the step caller keeps
// one, this shard's local view of every peer partition's replicas:
// breaker state, consecutive failures, latency EWMA, open connections. The
// view is per-process by design — each shard's breakers see their own
// traffic — so comparing /healthz across shards localizes asymmetric
// network trouble.
func (ss *ShardServer) handleHealth(w http.ResponseWriter, _ *http.Request) {
	ps, ok := ss.caller.(peerSnapshotter)
	if !ok {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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
	wq, err := ss.parseWalk(q, ss.node.NumVertices())
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
		// A transient peer failure is 503 + Retry-After: this shard is
		// healthy, the cluster momentarily incomplete.
		var pe *wire.PeerError
		if errors.As(err, &pe) {
			ss.retryErr(w, http.StatusServiceUnavailable, err)
		} else {
			writeErr(w, runStatus(err), err)
		}
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
		detail:     costDetail(q, rc, res.Duration),
	}
	// A shard that owns none of the walks says so with [], not null.
	if rep.walkIDs == nil {
		rep.walkIDs = []int{}
	}
	if rep.paths == nil {
		rep.paths = []core.Path{}
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
