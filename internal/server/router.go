// Router: the stateless front of a shard cluster. It holds no graph and no
// index — only the shard base URLs — so any number of router replicas can
// front the same cluster. GET /walk goes to one partition, from mod P, with
// the request's X-Request-ID attached: that shard coordinates every walk of
// the request, stepping walkers on whichever shards own their vertices, and
// the router relays its reply byte for byte. A client cannot tell a routed
// cluster from one teaserve process.
//
// Each configured shard entry may name several "|"-separated replica URLs,
// held in one shard.ReplicaGroup per partition — the same health model and
// failover loop the step-RPC layer uses: the router prefers the healthiest
// replica and fails over to a sibling on a transport error or 503, so a
// single replica outage never surfaces to clients.
//
// Failure semantics: a /walk is a 503 + Retry-After when its routed
// partition, or a partition its walks step on, has no replica answering —
// never a partial walk list. Other shard errors (400, 500) propagate with
// their status: a deliberate refusal is identical on every replica of the
// partition, so it is never failed over. /healthz, /readyz, /stats and
// metrics federation fan out to every partition; the readiness of the
// cluster is the conjunction of every partition's /readyz.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/trace"
)

// maxShardBody bounds one shard's response body read by the router. The
// shard-side caps do not keep a /walk reply under it (count 10⁴ × length 10⁴
// is 10⁸ hops), so a longer reply is a 502: it is final, because every
// replica of the partition renders the same bytes.
const maxShardBody = 64 << 20

// RouterConfig parameterizes a stateless shard router. Its Config is the
// operational one every mode shares; Instance and ShardID are always
// "router" and -1, and the size caps are enforced shard-side.
type RouterConfig struct {
	Config
	// Shards lists the shard base URLs in shard-id order; Shards[i] names the
	// HTTP address(es) of the processes serving shard i. An entry may hold
	// several "|"-separated replica URLs; the router load-balances toward the
	// healthiest and fails over between them. A URL without a scheme gets
	// http://, and a trailing / is dropped.
	Shards []string
}

// Router forwards queries to a shard cluster and relays the answers.
type Router struct {
	*shell
	groups []*shard.ReplicaGroup[struct{}] // replica URLs are all a request needs
	client *http.Client

	fanouts *metrics.Counter
}

// NewRouter builds a router over the given shard addresses.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: need at least one shard address")
	}
	replicaURLs, err := shard.ParseReplicaList(cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	rt := &Router{client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}}}
	cfg.Instance, cfg.ShardID = "router", -1
	rt.shell = newShell(cfg.Config, []route{
		{"GET /healthz", "healthz", false, rt.handleHealth},
		{"GET /readyz", "readyz", false, rt.handleReady},
		{"GET /stats", "stats", false, rt.handleStats},
		{"GET /walk", "walk", true, rt.handleWalk},
	})
	rt.snapshot = rt.federate
	reg := rt.cfg.Metrics
	for p, urls := range replicaURLs {
		for i, u := range urls {
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			urls[i] = strings.TrimRight(u, "/")
		}
		rt.groups = append(rt.groups, shard.NewReplicaGroup(p, urls, func(string) struct{} { return struct{}{} },
			reg, "tea_router_replica", "router.failover"))
	}
	rt.fanouts = reg.Counter("tea_router_fanouts_total")
	return rt, nil
}

// Close releases pooled shard connections.
func (rt *Router) Close() { rt.client.CloseIdleConnections() }

// shardReply is one shard's raw answer to a request.
type shardReply struct {
	status int
	header http.Header
	body   []byte
	err    error // transport-level failure or errShardTooLarge; status is meaningless
}

// fan issues GET path?query to every partition concurrently, propagating the
// request's X-Request-ID, and returns the replies indexed by shard id. Each
// partition's reply comes from its healthiest answering replica.
func (rt *Router) fan(ctx context.Context, path, rawQuery string) []shardReply {
	rt.fanouts.Inc()
	replies := make([]shardReply, len(rt.groups))
	var wg sync.WaitGroup
	for i, g := range rt.groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i] = rt.askPartition(ctx, g, path, rawQuery)
		}()
	}
	wg.Wait()
	return replies
}

// askPartition runs the partition's failover loop and returns the first
// reply that isn't a transport failure or a 503. Those two are exactly the
// retryable-elsewhere outcomes — a 400/500 is the partition's deliberate
// answer and would be identical from every sibling, and so would an
// over-size body, which the replica is not to blame for.
func (rt *Router) askPartition(ctx context.Context, g *shard.ReplicaGroup[struct{}], path, rawQuery string) shardReply {
	var reply shardReply
	// The error only drives the loop; the callers read the outcome, transport
	// error or status, from the last reply.
	_ = g.Try(ctx, func(r *shard.Replica[struct{}]) error {
		reply = rt.doShardRequest(ctx, g.Partition, r.Addr, path, rawQuery)
		if reply.err != nil && !errors.Is(reply.err, errShardTooLarge) {
			return reply.err
		}
		if reply.status == http.StatusServiceUnavailable {
			return errShardShedding
		}
		return nil
	}, nil)
	return reply
}

// errShardShedding reports a replica's 503 to its breaker.
var errShardShedding = errors.New("replica shedding (503)")

// doShardRequest performs one GET against one replica of one partition.
func (rt *Router) doShardRequest(ctx context.Context, partition int, baseURL, path, rawQuery string) shardReply {
	hopCtx, sp := trace.Start(ctx, "router.fanout")
	if sp != nil {
		sp.SetInt("shard", int64(partition))
		sp.SetStr("replica", baseURL)
		sp.SetStr("path", path)
		defer sp.End()
	}
	url := baseURL + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(hopCtx, http.MethodGet, url, nil)
	if err != nil {
		return shardReply{err: err}
	}
	if id := trace.RequestID(ctx); id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	if trace.SpanFromContext(hopCtx).Sampled() {
		// Tell the shard this request's trace is retained upstream,
		// so it collects its part regardless of its own sampling.
		req.Header.Set("X-Trace-Sampled", "1")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		if sp != nil {
			sp.SetError(err)
		}
		return shardReply{err: err}
	}
	body, err := readShardBody(resp)
	resp.Body.Close()
	if err != nil {
		return shardReply{err: err}
	}
	if sp != nil {
		sp.SetInt("status", int64(resp.StatusCode))
	}
	return shardReply{status: resp.StatusCode, header: resp.Header, body: body}
}

// errShardTooLarge refuses a shard response body beyond maxShardBody.
var errShardTooLarge = fmt.Errorf("response exceeds %d bytes", maxShardBody)

// readShardBody reads a response body of at most maxShardBody bytes into
// one buffer sized from its Content-Length, so a body that declares its
// length is read without regrowing.
func readShardBody(resp *http.Response) ([]byte, error) {
	size := resp.ContentLength
	if size > maxShardBody {
		return nil, errShardTooLarge
	}
	buf := bytes.NewBuffer(make([]byte, 0, max(size, 0)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxShardBody+1)); err != nil {
		return nil, err
	}
	if buf.Len() > maxShardBody {
		return nil, errShardTooLarge
	}
	return buf.Bytes(), nil
}

// shardErrMsg extracts the {"error": "..."} body of a shard error response,
// falling back to the raw body.
func shardErrMsg(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return string(body)
}

// writeShardDown answers 503 + Retry-After for an unreachable or shedding
// shard: the cluster is momentarily incomplete and the query is retryable.
func (rt *Router) writeShardDown(w http.ResponseWriter, shardID int, detail string) {
	rt.retryErr(w, http.StatusServiceUnavailable, fmt.Errorf("shard %d unavailable: %s", shardID, detail))
}

// handleWalk forwards the query to partition from mod P and relays the
// shard's reply: status, Content-Type, Retry-After and body, unread. Of the
// reply it reads only headers — the shard's partition count, and the cost
// ledger and span summaries the shard adds when asked for them.
func (rt *Router) handleWalk(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 32)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing or malformed required parameter %q", "from"))
		return
	}
	p := int(from % uint64(len(rt.groups)))
	rep := rt.askPartition(r.Context(), rt.groups[p], "/walk", r.URL.RawQuery)
	switch {
	case errors.Is(rep.err, errShardTooLarge):
		writeErr(w, http.StatusBadGateway, fmt.Errorf("shard %d: %v", p, rep.err))
		return
	case rep.err != nil:
		rt.writeShardDown(w, p, rep.err.Error())
		return
	case rep.status == http.StatusOK:
		// A shard built for another partition count owns other vertices:
		// its walks would be right, the deployment is not.
		if got := rep.header.Get(partitionsHeader); got != strconv.Itoa(len(rt.groups)) {
			writeErr(w, http.StatusBadGateway,
				fmt.Errorf("shard %d built for %q partitions, router has %d shards", p, got, len(rt.groups)))
			return
		}
		rt.absorbShardHeaders(r.Context(), rep.header)
	case rep.status == http.StatusServiceUnavailable && rep.header.Get("Retry-After") == "":
		rt.retryAfter(w)
	}
	h := w.Header()
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := rep.header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set("Content-Length", strconv.Itoa(len(rep.body)))
	w.WriteHeader(rep.status)
	_, _ = w.Write(rep.body) // a failed write means the client has gone
}

// absorbShardHeaders folds a shard's cost ledger into this request's
// collector, so the router's slow-request log and /debug/tea/top carry
// cluster-wide numbers, and injects the shard's span summaries into the
// router's tracer when this request's trace is retained, so one
// X-Request-ID yields one trace spanning every process the request touched.
// Both are telemetry: a header that does not decode is left out.
func (rt *Router) absorbShardHeaders(ctx context.Context, h http.Header) {
	var cost reqcost.Cost
	if v := h.Get(costHeader); v != "" && json.Unmarshal([]byte(v), &cost) == nil {
		reqcost.From(ctx).AddCost(cost)
	}
	var spans []wire.SpanSummary
	v := h.Get(spansHeader)
	if v == "" || !trace.SpanFromContext(ctx).Sampled() || json.Unmarshal([]byte(v), &spans) != nil {
		return
	}
	// Each summary becomes a real span with a placeholder SpanID (Inject
	// remaps them onto the tracer's own sequence) and identity attrs.
	recs := make([]trace.SpanRecord, len(spans))
	for i, ss := range spans {
		attrs := []trace.Attr{
			trace.Str("instance", fmt.Sprintf("shard-%d", ss.Shard)),
			trace.Int("shard_id", int64(ss.Shard)),
		}
		if ss.Walkers > 0 {
			attrs = append(attrs, trace.Int("walkers", int64(ss.Walkers)))
		}
		recs[i] = trace.SpanRecord{
			SpanID:      uint64(i + 1),
			Name:        ss.Name,
			StartMicros: ss.StartMicros,
			DurMicros:   ss.DurMicros,
			Attrs:       attrs,
		}
	}
	rt.cfg.Trace.Inject(trace.RequestID(ctx), recs)
}

// handleHealth is cluster health rolled up from every shard's /healthz. An
// unreachable (or erroring) shard makes the rollup a 503 "degraded" with
// Retry-After — the router must never answer a 200 "ok" lie while a shard is
// dead. A shard that is up but reports degraded storage keeps the rollup at
// 200 (the cluster still serves) with status "degraded" and the per-shard
// bodies attached so the trouble is attributable.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	replies := rt.fan(r.Context(), "/healthz", "")
	shards := make(map[string]any, len(replies))
	status := http.StatusOK
	overall := "ok"
	markDown := func(key, detail string) {
		shards[key] = map[string]string{"status": "down", "error": detail}
		overall = "degraded"
		status = http.StatusServiceUnavailable
	}
	for i, rep := range replies {
		key := strconv.Itoa(i)
		switch {
		case rep.err != nil:
			markDown(key, rep.err.Error())
		case rep.status != http.StatusOK:
			markDown(key, shardErrMsg(rep.body))
		default:
			var body map[string]any
			if err := json.Unmarshal(rep.body, &body); err != nil {
				markDown(key, "malformed /healthz body")
				continue
			}
			shards[key] = body
			if s, _ := body["status"].(string); s != "ok" {
				overall = "degraded"
			}
		}
	}
	if status == http.StatusServiceUnavailable {
		rt.retryAfter(w)
	}
	writeJSON(w, status, map[string]any{
		"status": overall, "shards": shards, "replicas": rt.replicaTopology(),
	})
}

// federate scrapes every shard's /metrics.json snapshot and merges them
// with the router's own registry: the router's series unlabeled, each
// shard's under shard="<id>", cluster rollups under shard="all". Any failed
// scrape fails the whole federation: a silently absent shard would make the
// cluster rollups understate reality.
func (rt *Router) federate(r *http.Request) (*metrics.Snapshot, error) {
	replies := rt.fan(r.Context(), "/metrics.json", "")
	shards := make([]metrics.ShardSnap, len(replies))
	for i, rep := range replies {
		if rep.err != nil {
			return nil, fmt.Errorf("shard %d: %v", i, rep.err)
		}
		if rep.status != http.StatusOK {
			return nil, fmt.Errorf("shard %d: status %d", i, rep.status)
		}
		snap := &metrics.Snapshot{}
		if err := json.Unmarshal(rep.body, snap); err != nil {
			return nil, fmt.Errorf("shard %d: malformed snapshot: %v", i, err)
		}
		shards[i] = metrics.ShardSnap{Label: strconv.Itoa(i), Snap: snap}
	}
	local, _ := rt.localSnapshot(r)
	return metrics.Federate(local, shards), nil
}

// handleReady is cluster readiness: 200 only when every partition has at
// least one replica whose /readyz is 200 (fan fails over between replicas),
// else 503 + Retry-After naming the partitions that aren't there yet. The
// per-replica breaker table rides along so an operator can see which
// replicas a "ready" verdict is actually standing on.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	replies := rt.fan(r.Context(), "/readyz", "")
	var notReady []int
	for i, rep := range replies {
		if rep.err != nil || rep.status != http.StatusOK {
			notReady = append(notReady, i)
		}
	}
	if len(notReady) > 0 {
		rt.retryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "waiting", "shards": len(rt.groups), "not_ready": notReady,
			"replicas": rt.replicaTopology(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ready", "shards": len(rt.groups), "replicas": rt.replicaTopology(),
	})
}

// handleStats aggregates every shard's /stats under one response.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	replies := rt.fan(r.Context(), "/stats", "")
	shards := make([]json.RawMessage, len(replies))
	for i, rep := range replies {
		if rep.err != nil {
			rt.writeShardDown(w, i, rep.err.Error())
			return
		}
		if rep.status != http.StatusOK {
			writeErr(w, rep.status, fmt.Errorf("shard %d: %s", i, shardErrMsg(rep.body)))
			return
		}
		shards[i] = json.RawMessage(rep.body)
	}
	writeJSON(w, http.StatusOK, map[string]any{"partitions": len(rt.groups), "shards": shards})
}

// replicaRow is one router replica's health in /healthz and /readyz.
type replicaRow struct {
	URL string `json:"url"`
	shard.ReplicaHealth
}

// replicaTopology reports every partition's replica table, keyed by shard id.
func (rt *Router) replicaTopology() map[string][]replicaRow {
	out := make(map[string][]replicaRow, len(rt.groups))
	for _, g := range rt.groups {
		rows := make([]replicaRow, 0, len(g.Replicas))
		for _, r := range g.Replicas {
			rows = append(rows, replicaRow{URL: r.Addr, ReplicaHealth: r.Health()})
		}
		out[strconv.Itoa(g.Partition)] = rows
	}
	return out
}
