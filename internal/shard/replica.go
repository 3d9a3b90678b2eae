package shard

import (
	"context"
	"errors"
	"fmt"
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

// peerGroup is the replica set serving one peer partition, plus its hedge
// counters.
type peerGroup struct {
	*ReplicaGroup[*wire.Client]
	hedges    *metrics.Counter
	hedgeWins *metrics.Counter
}

// ReplicaPeers is a StepCaller over replica groups: every partition maps to
// N interchangeable addresses, attempts prefer the healthiest replica, a
// failed hop re-sends the same walker frames to a sibling (byte-identical
// by construction — the frames carry raw RNG state), and optional hedges
// duplicate slow RPCs at a p99-based delay with first-wins cancellation.
type ReplicaPeers struct {
	cfg    ReplicaPeersConfig
	groups map[int]*peerGroup
}

// Peers is the single-replica view of ReplicaPeers, built by NewPeers for
// tests and deployments without replication.
type Peers = ReplicaPeers

// NewPeers builds pooled clients for every peer address: a ReplicaPeers
// with groups of one. addrs maps shard id to host:port; the local shard must
// not appear in it.
func NewPeers(addrs map[int]string, cfg wire.ClientConfig) *Peers {
	groups := make(map[int][]string, len(addrs))
	for id, addr := range addrs {
		groups[id] = []string{addr}
	}
	return NewReplicaPeers(groups, ReplicaPeersConfig{Client: cfg, Metrics: cfg.Metrics})
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
	dial := func(addr string) *wire.Client { return wire.NewClient(addr, cfg.Client) }
	rp := &ReplicaPeers{cfg: cfg, groups: make(map[int]*peerGroup, len(addrs))}
	for id, as := range addrs {
		rp.groups[id] = &peerGroup{
			ReplicaGroup: NewReplicaGroup(id, as, dial, cfg.Breaker, cfg.Metrics, "tea_shard_replica", "shard.failover"),
			hedges:       cfg.Metrics.Counter(fmt.Sprintf(`tea_shard_replica_hedges_total{shard="%d"}`, id)),
			hedgeWins:    cfg.Metrics.Counter(fmt.Sprintf(`tea_shard_replica_hedge_wins_total{shard="%d"}`, id)),
		}
	}
	return rp
}

// refused reports a deliberate refusal by the peer (a config mismatch):
// siblings share the fingerprint and would refuse identically, so it is
// never failed over.
func refused(err error) bool {
	var remote *wire.RemoteError
	return errors.As(err, &remote)
}

// Step implements StepCaller with mid-request failover: replicas are tried
// in health order and the first good answer wins; a refusal is returned at
// once.
func (rp *ReplicaPeers) Step(ctx context.Context, shardID int, req *wire.StepRequest) (*wire.StepResponse, error) {
	g, ok := rp.groups[shardID]
	if !ok {
		return nil, fmt.Errorf("shard: no peer addresses for shard %d", shardID)
	}
	if rp.cfg.Hedge.Enabled && len(g.Replicas) > 1 {
		return rp.hedgedStep(ctx, g, req)
	}
	var resp *wire.StepResponse
	err := g.Try(ctx, func(r *Replica[*wire.Client]) (err error) {
		resp, err = r.Conn.Step(ctx, req)
		return err
	}, refused)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// hedgeDelay picks the speculative-duplicate delay for a primary replica.
// A second return of false means hedging should be skipped this round.
func (rp *ReplicaPeers) hedgeDelay(primary *Replica[*wire.Client]) (time.Duration, bool) {
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
func (rp *ReplicaPeers) hedgedStep(ctx context.Context, g *peerGroup, req *wire.StepRequest) (*wire.StepResponse, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		resp *wire.StepResponse
		err  error
		idx  int
	}
	order := g.ordered()
	ch := make(chan outcome, len(order))
	next, inflight := 0, 0
	launch := func() {
		r := order[next]
		idx := next
		next++
		inflight++
		go func() {
			start := time.Now()
			resp, err := r.Conn.Step(hctx, req)
			// A loser cancelled by first-wins is not a health signal.
			g.report(hctx, r, start, err)
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
			if refused(out.err) {
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
				g.failover(ctx, order[out.idx], order[next])
				launch()
			} else if inflight == 0 {
				return nil, lastErr
			}
		case <-timerC:
			timerC = nil
			if next < len(order) {
				g.hedges.Inc()
				if _, sp := trace.Start(ctx, "shard.hedge"); sp != nil {
					sp.SetInt("shard", int64(g.Partition))
					sp.SetStr("to", order[next].Addr)
					sp.End()
				}
				hedgeIdx = next
				launch()
			}
		}
	}
	return nil, lastErr
}

// ReplicaStatus is one peer replica's health as reported by /healthz.
type ReplicaStatus struct {
	Addr string `json:"addr"`
	ReplicaHealth
	OpenConns int `json:"open_conns"`
}

// Snapshot reports every peer partition's replica table for observability.
func (rp *ReplicaPeers) Snapshot() map[int][]ReplicaStatus {
	out := make(map[int][]ReplicaStatus, len(rp.groups))
	for id, g := range rp.groups {
		sts := make([]ReplicaStatus, 0, len(g.Replicas))
		for _, r := range g.Replicas {
			sts = append(sts, ReplicaStatus{Addr: r.Addr, ReplicaHealth: r.Health(), OpenConns: r.Conn.OpenConns()})
		}
		out[id] = sts
	}
	return out
}

// Ping probes every peer partition; a partition is reachable if any one of
// its replicas answers. Outcomes feed the breakers, so startup pings also warm
// the health table.
func (rp *ReplicaPeers) Ping(ctx context.Context) error {
	for id, g := range rp.groups {
		err := g.Try(ctx, func(r *Replica[*wire.Client]) error { return r.Conn.Ping(ctx) }, nil)
		if err != nil {
			return fmt.Errorf("shard %d unreachable on all replicas: %w", id, err)
		}
	}
	return nil
}

// Close releases every replica's pooled connections.
func (rp *ReplicaPeers) Close() {
	for _, g := range rp.groups {
		for _, r := range g.Replicas {
			r.Conn.Close()
		}
	}
}
