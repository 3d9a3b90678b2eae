package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/trace"
)

// Replica is one address serving a partition: the handle attempts go
// through (a *wire.Client for step RPCs; nothing beyond the URL for the
// HTTP router) and this process's breaker view of it.
type Replica[C any] struct {
	Addr    string
	Conn    C
	breaker *Breaker
	state   *metrics.Gauge // 0 healthy / 1 suspect / 2 open
}

// ReplicaHealth is one replica's breaker view as /healthz and /readyz
// report it.
type ReplicaHealth struct {
	State            string  `json:"state"`
	ConsecutiveFails int     `json:"consecutive_fails"`
	LatencyEWMAms    float64 `json:"latency_ewma_ms"`
	OK               int64   `json:"ok_total"`
	Errors           int64   `json:"err_total"`
}

// Health reports the replica's breaker view.
func (r *Replica[C]) Health() ReplicaHealth {
	ok, errs := r.breaker.Totals()
	return ReplicaHealth{
		State:            r.breaker.State().String(),
		ConsecutiveFails: r.breaker.Fails(),
		LatencyEWMAms:    float64(r.breaker.EWMA()) / float64(time.Millisecond),
		OK:               ok,
		Errors:           errs,
	}
}

// ReplicaGroup is the replica set serving one partition, shared by the
// step-RPC layer (ReplicaPeers) and the HTTP router: it orders replicas by
// health, feeds every attempt's outcome to the breakers, and runs the one
// sequential failover loop.
type ReplicaGroup[C any] struct {
	Partition int
	Replicas  []*Replica[C]
	failovers *metrics.Counter
	span      string // name of the failover span
}

// errNoReplicas answers an attempt on a group without replicas.
var errNoReplicas = errors.New("shard: partition has no replicas")

// NewReplicaGroup builds the health table for one partition's replicas,
// with conn(addr) as each replica's handle. Its metrics are
// <prefix>_failovers_total{shard} and <prefix>_state{shard,replica}, and a
// failover leaves a span named span on the request's timeline.
func NewReplicaGroup[C any](partition int, addrs []string, conn func(addr string) C, reg *metrics.Registry, prefix, span string) *ReplicaGroup[C] {
	g := &ReplicaGroup[C]{
		Partition: partition,
		failovers: reg.Counter(fmt.Sprintf(`%s_failovers_total{shard="%d"}`, prefix, partition)),
		span:      span,
	}
	for _, addr := range addrs {
		g.Replicas = append(g.Replicas, &Replica[C]{
			Addr:    addr,
			Conn:    conn(addr),
			breaker: NewBreaker(),
			state:   reg.Gauge(fmt.Sprintf(`%s_state{shard="%d",replica=%q}`, prefix, partition, addr)),
		})
	}
	return g
}

// ordered returns the replicas in attempt-preference order: breaker rank
// first (healthy, suspect, probe-eligible, hard-open), then latency EWMA,
// then stable index. Open replicas stay listed as a last resort — the
// partition is down only when every replica fails.
func (g *ReplicaGroup[C]) ordered() []*Replica[C] {
	type scored struct {
		r    *Replica[C]
		rank int
		ewma float64
	}
	s := make([]scored, len(g.Replicas))
	for i, r := range g.Replicas {
		s[i].r = r
		s[i].rank, s[i].ewma = r.breaker.Rank()
	}
	sort.SliceStable(s, func(a, b int) bool {
		return s[a].rank < s[b].rank || s[a].rank == s[b].rank && s[a].ewma < s[b].ewma
	})
	out := make([]*Replica[C], len(s))
	for i := range s {
		out[i] = s[i].r
	}
	return out
}

// report feeds one attempt's outcome, started at start, to r's breaker and
// state gauge. A failure under a cancelled ctx (a fail-fast round cancel, a
// client gone) says nothing about the replica and is not charged; one cut
// off by ctx's deadline is, because the replica did not answer in time.
func (g *ReplicaGroup[C]) report(ctx context.Context, r *Replica[C], start time.Time, err error) {
	if err != nil && errors.Is(ctx.Err(), context.Canceled) {
		return
	}
	r.breaker.Report(time.Since(start), err)
	r.state.Set(float64(r.breaker.State()))
}

// failover counts a move from one replica to a sibling and records it as an
// instantaneous span on the request's timeline.
func (g *ReplicaGroup[C]) failover(ctx context.Context, from, to *Replica[C]) {
	g.failovers.Inc()
	if _, sp := trace.Start(ctx, g.span); sp != nil {
		sp.SetInt("shard", int64(g.Partition))
		sp.SetStr("from", from.Addr)
		sp.SetStr("to", to.Addr)
		sp.End()
	}
}

// Try runs attempt against the replicas in preference order and returns nil
// at the first success, else the last error. It stops early when ctx is
// done or when final reports the error as one every sibling would repeat
// (a deliberate refusal); final may be nil.
func (g *ReplicaGroup[C]) Try(ctx context.Context, attempt func(*Replica[C]) error, final func(error) bool) error {
	order := g.ordered()
	err := errNoReplicas
	for i, r := range order {
		if i > 0 {
			g.failover(ctx, order[i-1], r)
		}
		start := time.Now()
		err = attempt(r)
		g.report(ctx, r, start, err)
		if err == nil || ctx.Err() != nil || (final != nil && final(err)) {
			return err
		}
	}
	return err
}
