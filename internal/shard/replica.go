package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/trace"
)

// HedgeConfig tunes speculative duplicate step-RPCs. Hedging is safe because
// HandleStep is a pure function of the request (walkers carry their RNG
// state), so two replicas answering the same frame return identical bytes.
type HedgeConfig struct {
	// Enabled turns hedging on. Off by default: hedges trade duplicate work
	// for tail latency, which is an operator's call.
	Enabled bool
	// Delay is the fixed wait before launching the hedge; 0 means auto (the
	// primary replica's observed p99).
	Delay time.Duration
	// MinDelay/MaxDelay clamp the auto delay. Defaults 1ms / 1s.
	MinDelay time.Duration
	MaxDelay time.Duration
	// MinSamples gates auto hedging until the latency window has enough
	// history to make p99 meaningful. Default 16.
	MinSamples int
}

func (c HedgeConfig) normalized() HedgeConfig {
	if c.MinDelay <= 0 {
		c.MinDelay = time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = time.Second
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 16
	}
	return c
}

// ReplicaPeersConfig configures the health-aware peer table.
type ReplicaPeersConfig struct {
	Client  wire.ClientConfig
	Breaker BreakerConfig
	Hedge   HedgeConfig
	// Metrics receives the tea_shard_replica_* family; nil means
	// metrics.Default.
	Metrics *metrics.Registry
}

// replica is one address serving a partition, plus its local health view.
type replica struct {
	addr    string
	client  *wire.Client
	breaker *Breaker
	state   *metrics.Gauge // 0 healthy / 1 suspect / 2 open
}

func (r *replica) publishState() {
	r.state.Set(float64(r.breaker.State()))
}

// replicaGroup is the replica set serving one partition.
type replicaGroup struct {
	shardID   int
	replicas  []*replica
	failovers *metrics.Counter
	hedges    *metrics.Counter
	hedgeWins *metrics.Counter
}

// ordered returns the group's replicas in attempt-preference order: by
// breaker rank (healthy, suspect, probe-eligible, open), then by latency
// EWMA, then by stable index. Open replicas stay in the list as a last
// resort — the partition is reported down only when every replica fails.
func (g *replicaGroup) ordered() []*replica {
	type scored struct {
		r    *replica
		rank int
		ewma float64
		idx  int
	}
	s := make([]scored, len(g.replicas))
	for i, r := range g.replicas {
		rank, ewma := r.breaker.Rank()
		s[i] = scored{r, rank, ewma, i}
	}
	sort.Slice(s, func(a, b int) bool {
		if s[a].rank != s[b].rank {
			return s[a].rank < s[b].rank
		}
		if s[a].ewma != s[b].ewma {
			return s[a].ewma < s[b].ewma
		}
		return s[a].idx < s[b].idx
	})
	out := make([]*replica, len(s))
	for i := range s {
		out[i] = s[i].r
	}
	return out
}

// ReplicaPeers is a StepCaller over replica groups: every partition maps to
// N interchangeable addresses, attempts prefer the healthiest replica, a
// failed hop re-sends the same walker frames to a sibling (byte-identical
// by construction — the frames carry raw RNG state), and optional hedges
// duplicate slow RPCs at a p99-based delay with first-wins cancellation.
type ReplicaPeers struct {
	cfg    ReplicaPeersConfig
	groups map[int]*replicaGroup
}

// ParseReplicaList parses the replica-list syntax of teaserve's -shard-peers,
// tearouter's -shards and RouterConfig.Shards: entries[i] names partition
// i's interchangeable replicas, separated by "|" ("a|b,c|d" split on ","),
// each trimmed of spaces. An empty replica, including an empty entry, is
// refused: dropping it would silently change a partition's replica set or
// the partition count, which every process must agree on.
func ParseReplicaList(entries []string) ([][]string, error) {
	out := make([][]string, len(entries))
	for i, entry := range entries {
		for _, a := range strings.Split(entry, "|") {
			if a = strings.TrimSpace(a); a == "" {
				return nil, fmt.Errorf("partition %d: empty replica in %q", i, entry)
			}
			out[i] = append(out[i], a)
		}
	}
	return out, nil
}

// NewReplicaPeers builds pooled clients for every replica of every peer
// partition. addrs maps shard id to that partition's replica addresses (the
// local shard must not appear).
func NewReplicaPeers(addrs map[int][]string, cfg ReplicaPeersConfig) *ReplicaPeers {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default
	}
	if cfg.Client.Metrics == nil {
		cfg.Client.Metrics = cfg.Metrics
	}
	cfg.Hedge = cfg.Hedge.normalized()
	rp := &ReplicaPeers{cfg: cfg, groups: make(map[int]*replicaGroup, len(addrs))}
	for id, as := range addrs {
		g := &replicaGroup{
			shardID:   id,
			failovers: cfg.Metrics.Counter(fmt.Sprintf(`tea_shard_replica_failovers_total{shard="%d"}`, id)),
			hedges:    cfg.Metrics.Counter(fmt.Sprintf(`tea_shard_replica_hedges_total{shard="%d"}`, id)),
			hedgeWins: cfg.Metrics.Counter(fmt.Sprintf(`tea_shard_replica_hedge_wins_total{shard="%d"}`, id)),
		}
		for _, addr := range as {
			r := &replica{
				addr:    addr,
				client:  wire.NewClient(addr, cfg.Client),
				breaker: NewBreaker(cfg.Breaker),
				state:   cfg.Metrics.Gauge(fmt.Sprintf(`tea_shard_replica_state{shard="%d",replica=%q}`, id, addr)),
			}
			g.replicas = append(g.replicas, r)
		}
		rp.groups[id] = g
	}
	return rp
}

// Step implements StepCaller with mid-request failover: replicas are tried
// in health order and the first good answer wins. A *wire.RemoteError (the
// peer deliberately refused — config mismatch) is returned immediately:
// siblings share the fingerprint and would refuse identically.
func (rp *ReplicaPeers) Step(ctx context.Context, shardID int, req *wire.StepRequest) (*wire.StepResponse, error) {
	g, ok := rp.groups[shardID]
	if !ok {
		return nil, fmt.Errorf("shard: no peer addresses for shard %d", shardID)
	}
	order := g.ordered()
	if rp.cfg.Hedge.Enabled && len(order) > 1 {
		return rp.hedgedStep(ctx, g, order, req)
	}
	var lastErr error
	for i, r := range order {
		resp, err := rp.try(ctx, r, req)
		if err == nil {
			return resp, nil
		}
		var remote *wire.RemoteError
		if errors.As(err, &remote) {
			return nil, err
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
		if i+1 < len(order) {
			g.failovers.Inc()
			rp.traceFailover(ctx, g.shardID, r.addr, order[i+1].addr)
		}
	}
	return nil, lastErr
}

// try runs one attempt against one replica and reports its outcome to the
// breaker — unless the surrounding context was cancelled, in which case the
// failure says nothing about the replica's health.
func (rp *ReplicaPeers) try(ctx context.Context, r *replica, req *wire.StepRequest) (*wire.StepResponse, error) {
	start := time.Now()
	resp, err := r.client.Step(ctx, req)
	if err == nil || ctx.Err() == nil {
		r.breaker.Report(time.Since(start), err)
		r.publishState()
	}
	return resp, err
}

// hedgeDelay picks the speculative-duplicate delay for a primary replica.
// A second return of false means hedging should be skipped this round.
func (rp *ReplicaPeers) hedgeDelay(primary *replica) (time.Duration, bool) {
	h := rp.cfg.Hedge
	if h.Delay > 0 {
		return h.Delay, true
	}
	p99, n := primary.breaker.P99()
	if n < h.MinSamples {
		return 0, false
	}
	if p99 < h.MinDelay {
		p99 = h.MinDelay
	}
	if p99 > h.MaxDelay {
		p99 = h.MaxDelay
	}
	return p99, true
}

// hedgedStep launches the primary attempt, arms a p99 timer, and on expiry
// launches a duplicate on the next-preferred replica; the first good answer
// wins and cancels the other. A replica error before the timer fires skips
// straight to failover (no reason to wait for a timer when the primary is
// already known dead).
func (rp *ReplicaPeers) hedgedStep(ctx context.Context, g *replicaGroup, order []*replica, req *wire.StepRequest) (*wire.StepResponse, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		resp *wire.StepResponse
		err  error
		idx  int
	}
	ch := make(chan outcome, len(order))
	next, inflight := 0, 0
	launch := func() {
		r := order[next]
		idx := next
		next++
		inflight++
		go func() {
			start := time.Now()
			resp, err := r.client.Step(hctx, req)
			// A loser cancelled by first-wins is not a health signal.
			if err == nil || hctx.Err() == nil {
				r.breaker.Report(time.Since(start), err)
				r.publishState()
			}
			ch <- outcome{resp, err, idx}
		}()
	}
	launch()

	var timerC <-chan time.Time
	if d, ok := rp.hedgeDelay(order[0]); ok {
		t := time.NewTimer(d)
		defer t.Stop()
		timerC = t.C
	}

	hedgeIdx := -1 // launch index that was a speculative hedge, if any
	var lastErr error
	for inflight > 0 {
		select {
		case out := <-ch:
			inflight--
			if out.err == nil {
				if out.idx == hedgeIdx {
					g.hedgeWins.Inc()
				}
				return out.resp, nil
			}
			var remote *wire.RemoteError
			if errors.As(out.err, &remote) {
				return nil, out.err
			}
			lastErr = out.err
			if ctx.Err() != nil {
				if inflight == 0 {
					return nil, lastErr
				}
				continue
			}
			if next < len(order) {
				rp.traceFailover(ctx, g.shardID, order[out.idx].addr, order[next].addr)
				g.failovers.Inc()
				launch()
			} else if inflight == 0 {
				return nil, lastErr
			}
		case <-timerC:
			timerC = nil
			if next < len(order) {
				g.hedges.Inc()
				rp.traceHedge(ctx, g.shardID, order[next].addr)
				hedgeIdx = next
				launch()
			}
		}
	}
	return nil, lastErr
}

// traceFailover records a failover decision as an instantaneous span on the
// request's timeline.
func (rp *ReplicaPeers) traceFailover(ctx context.Context, shardID int, from, to string) {
	_, sp := trace.Start(ctx, "shard.failover")
	if sp == nil {
		return
	}
	sp.SetInt("shard", int64(shardID))
	sp.SetStr("from", from)
	sp.SetStr("to", to)
	sp.End()
}

// traceHedge records a hedge launch on the request's timeline.
func (rp *ReplicaPeers) traceHedge(ctx context.Context, shardID int, to string) {
	_, sp := trace.Start(ctx, "shard.hedge")
	if sp == nil {
		return
	}
	sp.SetInt("shard", int64(shardID))
	sp.SetStr("to", to)
	sp.End()
}

// ReplicaStatus is one replica's health as reported by /healthz.
type ReplicaStatus struct {
	Addr             string  `json:"addr"`
	State            string  `json:"state"`
	ConsecutiveFails int     `json:"consecutive_fails"`
	LatencyEWMAms    float64 `json:"latency_ewma_ms"`
	OK               int64   `json:"ok_total"`
	Errors           int64   `json:"err_total"`
	OpenConns        int     `json:"open_conns"`
}

// Snapshot reports every peer partition's replica table for observability.
func (rp *ReplicaPeers) Snapshot() map[int][]ReplicaStatus {
	out := make(map[int][]ReplicaStatus, len(rp.groups))
	for id, g := range rp.groups {
		sts := make([]ReplicaStatus, 0, len(g.replicas))
		for _, r := range g.replicas {
			ok, errs := r.breaker.Totals()
			sts = append(sts, ReplicaStatus{
				Addr:             r.addr,
				State:            r.breaker.State().String(),
				ConsecutiveFails: r.breaker.Fails(),
				LatencyEWMAms:    float64(r.breaker.EWMA()) / float64(time.Millisecond),
				OK:               ok,
				Errors:           errs,
				OpenConns:        r.client.OpenConns(),
			})
		}
		out[id] = sts
	}
	return out
}

// Ping probes every peer partition; a partition is reachable if any one of
// its replicas answers. Outcomes feed the breakers, so startup probing also
// warms the health table.
func (rp *ReplicaPeers) Ping(ctx context.Context) error {
	for id, g := range rp.groups {
		var lastErr error
		reached := false
		for _, r := range g.ordered() {
			start := time.Now()
			err := r.client.Ping(ctx)
			if err == nil || ctx.Err() == nil {
				r.breaker.Report(time.Since(start), err)
				r.publishState()
			}
			if err == nil {
				reached = true
				break
			}
			lastErr = err
		}
		if !reached {
			return fmt.Errorf("shard %d unreachable on all replicas: %w", id, lastErr)
		}
	}
	return nil
}

// Close releases every replica's pooled connections.
func (rp *ReplicaPeers) Close() {
	for _, g := range rp.groups {
		for _, r := range g.replicas {
			r.client.Close()
		}
	}
}
