// Router: the stateless front of a shard cluster. It holds no graph and no
// index — only the shard base URLs — so any number of router replicas can
// front the same cluster. GET /walk fans the query to every partition with
// the request's X-Request-ID attached, collects each partition's partial
// response (the walks whose source vertex that partition owns, keyed by
// global walk id), and merges them by walk id into exactly the
// single-process reply: a client cannot tell a routed cluster
// from one teaserve process.
//
// Each configured shard entry may name several "|"-separated replica URLs,
// held in one shard.ReplicaGroup per partition — the same health model and
// failover loop the step-RPC layer uses: the router prefers the healthiest
// replica and fails over to a sibling on a transport error or 503, so a
// single replica outage never surfaces to clients.
//
// Failure semantics: a partition whose every replica is unreachable or
// shedding makes the whole /walk a 503 + Retry-After (partial walk lists
// would silently change query semantics); other shard errors (400, 500)
// propagate with their status — a deliberate refusal is identical on every
// replica of the partition, so it is never failed over. The readiness of
// the cluster is the conjunction of every partition's /readyz.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/trace"
)

// maxShardBody bounds one shard's response body read by the router; beyond it
// the response is treated as malformed. 64 MiB comfortably holds the largest
// capped walk response (count and length are capped shard-side).
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

// Router fans queries over a shard cluster and merges the partial answers.
type Router struct {
	*shell
	groups []*shard.ReplicaGroup[struct{}] // replica URLs are all a fan needs
	client *http.Client

	fanouts *metrics.Counter
	merges  *metrics.Counter
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
	rt.merges = reg.Counter("tea_router_merged_walks_total")
	return rt, nil
}

// Close releases pooled shard connections.
func (rt *Router) Close() { rt.client.CloseIdleConnections() }

// shardReply is one shard's raw answer to a fanned request.
type shardReply struct {
	status     int
	retryAfter string
	body       []byte
	err        error // transport-level failure; status is meaningless
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
			replies[i] = rt.fanPartition(ctx, g, path, rawQuery)
		}()
	}
	wg.Wait()
	return replies
}

// fanPartition runs the partition's failover loop and returns the first
// reply that isn't a transport failure or a 503. Those two are exactly the
// retryable-elsewhere outcomes — a 400/500 is the partition's deliberate
// answer and would be identical from every sibling.
func (rt *Router) fanPartition(ctx context.Context, g *shard.ReplicaGroup[struct{}], path, rawQuery string) shardReply {
	var reply shardReply
	// The error only drives the loop; the callers read the outcome, transport
	// error or status, from the last reply.
	_ = g.Try(ctx, func(r *shard.Replica[struct{}]) error {
		reply = rt.doShardRequest(ctx, g.Partition, r.Addr, path, rawQuery)
		if reply.err != nil {
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
	return shardReply{
		status:     resp.StatusCode,
		retryAfter: resp.Header.Get("Retry-After"),
		body:       body,
	}
}

// errShardTooLarge refuses a shard response body beyond maxShardBody.
var errShardTooLarge = fmt.Errorf("response exceeds %d bytes", maxShardBody)

// readShardBody reads a response body of at most maxShardBody bytes into
// one buffer sized from its Content-Length, so a body that declares its
// length is read without regrowing. The /walk merge splices sub-slices of
// the buffer into the reply, so it is never pooled.
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

// shardWalk is one shard's partial answer to a /walk as the router merges
// it: walks[i] is the walk with global id walkIDs[i], still in the bytes the
// shard rendered, plus the four cost counters the router sums.
type shardWalk struct {
	partitions                       int
	walkIDs                          []int
	walks                            [][]byte // sub-slices of the shard's body
	steps, edges, migrations, frames int64
	// detail is this shard's share of the request's resource consumption,
	// present when the request carried ?cost=1; the router merges the shares
	// into the assembled response's cost_detail with a per-shard split.
	detail *reqcost.Cost
	// spans carries compact span summaries (this shard's run/hop timings plus
	// whatever peers shipped on step responses) when the request was sampled
	// upstream; the router injects them into its tracer so one X-Request-ID
	// yields one cross-process trace.
	spans []wire.SpanSummary
}

// parseShardWalk reads a shard's partial /walk reply in one pass. It accepts
// exactly what walkReply.appendJSON renders for a partial reply and nothing
// else — no whitespace, members in their rendered order, canonical decimals
// (walk ids and counts never negative), a start hop without "t" and every
// later hop with one — so a walk's bytes can be copied into the merged reply
// as they stand. Only strings with escapes and the optional cost_detail and
// spans members go through encoding/json.
func parseShardWalk(body []byte) (shardWalk, error) {
	var sw shardWalk
	c := scanner{b: body, ok: true}
	c.lit(`{"from":`)
	c.uint(math.MaxUint32)
	c.lit(`,"shard":`)
	c.uint(math.MaxInt)
	c.lit(`,"partitions":`)
	sw.partitions = int(c.uint(math.MaxInt))
	c.lit(`,"walk_ids":`)
	if !c.null() {
		c.lit("[")
		for c.ok && !c.next(']') {
			if len(sw.walkIDs) > 0 {
				c.lit(",")
			}
			sw.walkIDs = append(sw.walkIDs, int(c.uint(math.MaxInt)))
		}
	}
	c.lit(`,"walks":`)
	if !c.null() {
		c.lit("[")
		for c.ok && !c.next(']') {
			if len(sw.walks) > 0 {
				c.lit(",")
			}
			start := c.i
			c.lit(`[{"v":`)
			c.uint(math.MaxUint32)
			c.lit("}")
			for c.ok && !c.next(']') {
				c.lit(`,{"v":`)
				c.uint(math.MaxUint32)
				c.lit(`,"t":`)
				c.int()
				c.lit("}")
			}
			sw.walks = append(sw.walks, body[start:c.i])
		}
	}
	// The cost object's keys are strictly increasing, as rendered; of its
	// values only the four the router sums are read, and those must be
	// canonical integers.
	c.lit(`,"cost":{`)
	var prev []byte
	for n := 0; c.ok && !c.next('}'); n++ {
		if n > 0 {
			c.lit(",")
		}
		key := c.str()
		if n > 0 && bytes.Compare(prev, key) >= 0 {
			c.ok = false
		}
		prev = key
		c.lit(":")
		val := c.str()
		var sum *int64
		switch string(key) {
		case "steps":
			sum = &sw.steps
		case "edges_evaluated":
			sum = &sw.edges
		case "migrations":
			sum = &sw.migrations
		case "frames":
			sum = &sw.frames
		}
		if sum != nil && c.ok {
			v := scanner{b: val, ok: true}
			*sum = v.int()
			c.ok = v.ok && v.i == len(val)
		}
	}
	if !c.ok {
		return shardWalk{}, fmt.Errorf("unexpected input at byte %d", c.i)
	}
	tail, ok := bytes.CutSuffix(body[c.i:], []byte("}\n"))
	if !ok {
		return shardWalk{}, fmt.Errorf("no closing brace and newline after byte %d", c.i)
	}
	if len(tail) > 0 {
		if err := parseShardTail(tail, &sw); err != nil {
			return shardWalk{}, fmt.Errorf("after byte %d: %v", c.i, err)
		}
	}
	return sw, nil
}

// parseShardTail decodes the optional members that follow "cost" and
// refuses them unless they re-render to the same bytes.
func parseShardTail(tail []byte, sw *shardWalk) error {
	var t struct {
		CostDetail *reqcost.Cost      `json:"cost_detail"`
		Spans      []wire.SpanSummary `json:"spans"`
	}
	obj := append([]byte{'{'}, tail[1:]...)
	if err := json.Unmarshal(append(obj, '}'), &t); err != nil {
		return err
	}
	rep := walkReply{detail: t.CostDetail, spans: t.Spans}
	if !sameUpToFFFD(rep.appendTail(nil), tail) {
		return errors.New("cost_detail or spans not as a shard renders them")
	}
	sw.detail, sw.spans = t.CostDetail, t.Spans
	return nil
}

// sameUpToFFFD reports whether render, encoding/json's rendering of what src
// decoded to, is src — where src may spell U+FFFD as \ufffd, which is how
// encoding/json writes an invalid UTF-8 byte that decodes to U+FFFD.
func sameUpToFFFD(render, src []byte) bool {
	for len(render) > 0 && len(src) > 0 {
		switch {
		case bytes.HasPrefix(render, []byte("\uFFFD")) && bytes.HasPrefix(src, []byte(`\ufffd`)):
			render, src = render[len("\uFFFD"):], src[len(`\ufffd`):]
		case render[0] == src[0]:
			render, src = render[1:], src[1:]
		default:
			return false
		}
	}
	return len(render) == 0 && len(src) == 0
}

// scanner is parseShardWalk's cursor over a body. The first mismatch clears
// ok and leaves i at the offending byte; every later call is then a no-op.
type scanner struct {
	b  []byte
	i  int
	ok bool
}

// has reports whether s comes next.
func (c *scanner) has(s string) bool {
	return c.ok && len(c.b)-c.i >= len(s) && string(c.b[c.i:c.i+len(s)]) == s
}

// lit consumes s.
func (c *scanner) lit(s string) {
	if c.has(s) {
		c.i += len(s)
	} else {
		c.ok = false
	}
}

// next consumes b if it is the next byte and reports whether it was.
func (c *scanner) next(b byte) bool {
	if c.ok && c.i < len(c.b) && c.b[c.i] == b {
		c.i++
		return true
	}
	return false
}

// null consumes a JSON null and reports whether there was one.
func (c *scanner) null() bool {
	if c.has("null") {
		c.i += len("null")
		return true
	}
	return false
}

// uint consumes a canonical decimal — no sign, no leading zero — of at most
// max, which is below 10¹⁹: nineteen digits cannot overflow a uint64.
func (c *scanner) uint(max uint64) uint64 {
	if !c.ok {
		return 0
	}
	start := c.i
	var n uint64
	for ; c.i < len(c.b) && '0' <= c.b[c.i] && c.b[c.i] <= '9' && c.i-start < 19; c.i++ {
		n = n*10 + uint64(c.b[c.i]-'0')
	}
	if c.i == start || c.i-start > 1 && c.b[start] == '0' || n > max ||
		c.i < len(c.b) && '0' <= c.b[c.i] && c.b[c.i] <= '9' {
		c.i, c.ok = start, false
		return 0
	}
	return n
}

// int consumes a canonical int64 as strconv.AppendInt renders it: an
// optional minus sign, never before 0.
func (c *scanner) int() int64 {
	if !c.next('-') {
		return int64(c.uint(math.MaxInt64))
	}
	n := c.uint(1 << 63)
	if n == 0 {
		c.ok = false
	}
	return int64(-n)
}

// str consumes a JSON string as appendString renders it and returns its
// contents: a sub-slice of the body for a string copied verbatim, a decoded
// copy for one with escapes.
func (c *scanner) str() []byte {
	start := c.i
	c.lit(`"`)
	for c.ok && c.i < len(c.b) {
		r, size := utf8.DecodeRune(c.b[c.i:])
		switch {
		case r == '"':
			c.i++
			return c.b[start+1 : c.i-1]
		case r == '\\':
			return c.escapedStr(start)
		case jsonEscapes(r, size):
			c.ok = false
			return nil
		}
		c.i += size
	}
	c.ok = false
	return nil
}

// escapedStr finishes the string that opened at start and holds an escape.
// It must be exactly what appendString renders for its decoded contents.
func (c *scanner) escapedStr(start int) []byte {
	for c.i < len(c.b) && c.b[c.i] != '"' {
		if c.b[c.i] == '\\' {
			c.i++
		}
		c.i++
	}
	c.i++
	var s string
	if c.i > len(c.b) || json.Unmarshal(c.b[start:c.i], &s) != nil ||
		!sameUpToFFFD(appendString(nil, s), c.b[start:c.i]) {
		c.i, c.ok = start, false
		return nil
	}
	return []byte(s)
}

func (rt *Router) handleWalk(w http.ResponseWriter, r *http.Request) {
	// The router is stateless: it validates only what merging needs (the
	// walk count); vertex bounds and size caps are enforced shard-side and
	// their 400s propagate unchanged.
	q := r.URL.Query()
	rawFrom := q.Get("from")
	fromID, err := strconv.ParseUint(rawFrom, 10, 32)
	if rawFrom == "" || err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing or malformed required parameter %q", "from"))
		return
	}
	count, err := intParam(q, "count", 1)
	if err != nil || count <= 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("count must be a positive integer"))
		return
	}

	replies := rt.fan(r.Context(), "/walk", q.Encode())

	// Any failed or shedding shard fails the whole query: merging a partial
	// cluster would silently return fewer walks than asked.
	for i, rep := range replies {
		if rep.err != nil {
			rt.writeShardDown(w, i, rep.err.Error())
			return
		}
		if rep.status == http.StatusServiceUnavailable {
			// The shard's own Retry-After hint wins over the router's.
			if rep.retryAfter != "" {
				w.Header().Set("Retry-After", rep.retryAfter)
			} else {
				rt.retryAfter(w)
			}
			writeErr(w, http.StatusServiceUnavailable,
				fmt.Errorf("shard %d unavailable: %s", i, shardErrMsg(rep.body)))
			return
		}
		if rep.status != http.StatusOK {
			writeErr(w, rep.status, fmt.Errorf("shard %d: %s", i, shardErrMsg(rep.body)))
			return
		}
	}

	// Splice the partial walk lists by global walk id. Every id in
	// [0, count) must be claimed exactly once across the cluster — anything
	// else means the shards disagree about ownership (mismatched partition
	// counts) and is a deployment error, not a client one.
	walks := make([][]byte, count) // nil until a shard claims the walk
	var steps, edges, migrations, frames int64
	clusterCost := reqcost.Cost{Shards: map[string]*reqcost.Cost{}}
	var spanRecs []trace.SpanRecord
	for i, rep := range replies {
		sw, err := parseShardWalk(rep.body)
		if err != nil {
			writeErr(w, http.StatusBadGateway, fmt.Errorf("shard %d: malformed response: %v", i, err))
			return
		}
		if sw.partitions != len(rt.groups) {
			writeErr(w, http.StatusBadGateway,
				fmt.Errorf("shard %d built for %d partitions, router has %d shards", i, sw.partitions, len(rt.groups)))
			return
		}
		if len(sw.walkIDs) != len(sw.walks) {
			writeErr(w, http.StatusBadGateway,
				fmt.Errorf("shard %d: %d walk ids for %d walks", i, len(sw.walkIDs), len(sw.walks)))
			return
		}
		for j, id := range sw.walkIDs {
			if id >= count {
				writeErr(w, http.StatusBadGateway, fmt.Errorf("shard %d: walk id %d outside [0, %d)", i, id, count))
				return
			}
			if walks[id] != nil {
				writeErr(w, http.StatusBadGateway, fmt.Errorf("walk id %d claimed by more than one shard", id))
				return
			}
			walks[id] = sw.walks[j]
		}
		steps += sw.steps
		edges += sw.edges
		migrations += sw.migrations
		frames += sw.frames
		if sw.detail != nil {
			clusterCost.Add(*sw.detail)
			clusterCost.Shards[strconv.Itoa(i)] = sw.detail
		}
		// Shard span summaries become real spans in the router's tracer: each
		// gets a placeholder SpanID here (Inject remaps them onto the tracer's
		// own sequence) and identity attrs, so one X-Request-ID resolves to
		// one trace spanning every process the request touched.
		for _, ss := range sw.spans {
			attrs := []trace.Attr{
				trace.Str("instance", fmt.Sprintf("shard-%d", ss.Shard)),
				trace.Int("shard_id", int64(ss.Shard)),
			}
			if ss.Walkers > 0 {
				attrs = append(attrs, trace.Int("walkers", int64(ss.Walkers)))
			}
			spanRecs = append(spanRecs, trace.SpanRecord{
				SpanID:      uint64(len(spanRecs) + 1),
				Name:        ss.Name,
				StartMicros: ss.StartMicros,
				DurMicros:   ss.DurMicros,
				Attrs:       attrs,
			})
		}
	}
	for id, walk := range walks {
		if walk == nil {
			writeErr(w, http.StatusBadGateway, fmt.Errorf("walk id %d claimed by no shard", id))
			return
		}
	}
	rt.merges.Add(int64(count))
	// Fold the cluster's cost into this request's collector so the router's
	// slow-request log and /debug/tea/top carry cluster-wide numbers, and
	// inject the shards' span summaries when this request's trace is retained.
	reqcost.From(r.Context()).AddCost(clusterCost)
	if len(spanRecs) > 0 && trace.SpanFromContext(r.Context()).Sampled() {
		rt.cfg.Trace.Inject(trace.RequestID(r.Context()), spanRecs)
	}

	rep := walkReply{from: temporal.Vertex(fromID), walks: walks}
	if q.Get("cost") == "1" && len(clusterCost.Shards) > 0 {
		rep.detail = &clusterCost
	}
	cost := []costField{
		costNum("steps", steps),
		costNum("edges_evaluated", edges),
		costNum("migrations", migrations),
		costNum("frames", frames),
		costNum("shards", int64(len(rt.groups))),
	}
	if steps > 0 {
		cost = append(cost, costRatio("edges_per_step", float64(edges)/float64(steps)))
	}
	writeWalkReply(w, &rep, cost...)
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
