// Router replica awareness: each -shards entry may name several
// interchangeable replica URLs ("http://a:8080|http://b:8080") serving the
// same partition. The router keeps a per-replica circuit breaker
// (shard.Breaker — the same health model the step-RPC layer uses), prefers
// the healthiest / fastest replica for every fanned request, and fails over
// to a sibling on a transport error or a 503. A partition is reported down
// only when every one of its replicas fails, so a single replica outage is
// invisible to clients: zero 5xx, byte-identical responses.
package server

import (
	"fmt"
	"sort"
	"time"

	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/shard"
)

// routerReplica is one HTTP base URL serving a partition, plus the router's
// local view of its health.
type routerReplica struct {
	url     string
	breaker *shard.Breaker
	state   *metrics.Gauge // 0 healthy / 1 suspect / 2 open
}

func (r *routerReplica) publishState() {
	r.state.Set(float64(r.breaker.State()))
}

// routerGroup is the replica set fronting one partition.
type routerGroup struct {
	partition int
	replicas  []*routerReplica
	failovers *metrics.Counter
}

// ordered returns the group's replicas in attempt-preference order: breaker
// rank first (healthy, suspect, probe-eligible, hard-open), then latency
// EWMA, then stable index. Open replicas stay listed as a last resort.
func (g *routerGroup) ordered() []*routerReplica {
	type scored struct {
		r    *routerReplica
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
	out := make([]*routerReplica, len(s))
	for i := range s {
		out[i] = s[i].r
	}
	return out
}

// newRouterGroups builds the health table for the parsed replica sets.
func newRouterGroups(replicaURLs [][]string, reg *metrics.Registry, bcfg shard.BreakerConfig) []*routerGroup {
	groups := make([]*routerGroup, len(replicaURLs))
	for p, urls := range replicaURLs {
		g := &routerGroup{
			partition: p,
			failovers: reg.Counter(fmt.Sprintf(`tea_router_replica_failovers_total{shard="%d"}`, p)),
		}
		for _, u := range urls {
			g.replicas = append(g.replicas, &routerReplica{
				url:     u,
				breaker: shard.NewBreaker(bcfg),
				state:   reg.Gauge(fmt.Sprintf(`tea_router_replica_state{shard="%d",replica=%q}`, p, u)),
			})
		}
		groups[p] = g
	}
	return groups
}

// routerReplicaStatus is one replica's health in /healthz and /readyz.
type routerReplicaStatus struct {
	URL              string  `json:"url"`
	State            string  `json:"state"`
	ConsecutiveFails int     `json:"consecutive_fails"`
	LatencyEWMAms    float64 `json:"latency_ewma_ms"`
	OK               int64   `json:"ok_total"`
	Errors           int64   `json:"err_total"`
}

// replicaTopology reports every partition's replica table, keyed by shard id.
func (rt *Router) replicaTopology() map[string][]routerReplicaStatus {
	out := make(map[string][]routerReplicaStatus, len(rt.groups))
	for _, g := range rt.groups {
		sts := make([]routerReplicaStatus, 0, len(g.replicas))
		for _, r := range g.replicas {
			ok, errs := r.breaker.Totals()
			sts = append(sts, routerReplicaStatus{
				URL:              r.url,
				State:            r.breaker.State().String(),
				ConsecutiveFails: r.breaker.Fails(),
				LatencyEWMAms:    float64(r.breaker.EWMA()) / float64(time.Millisecond),
				OK:               ok,
				Errors:           errs,
			})
		}
		out[fmt.Sprintf("%d", g.partition)] = sts
	}
	return out
}
