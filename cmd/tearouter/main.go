// Command tearouter is the stateless front of a teaserve shard cluster: it
// holds no graph and no index, only the shard addresses. It sends every
// /walk to one shard, from mod P, with the request's X-Request-ID attached;
// that shard coordinates every walk of the request, and the router relays
// its reply — exactly the single-process response — byte for byte.
// Because it keeps no state, any number of router replicas can front the same
// cluster behind a plain TCP load balancer.
//
// Usage:
//
//	tearouter -shards http://h0:8080,http://h1:8080,http://h2:8080 -addr :8090
//
// The -shards list must be in shard-id order and match the -shard-peers list
// the shards themselves were started with (same length = same partition
// count); a shard reply naming another partition count is answered with 502.
//
// A -shards entry may name several "|"-separated replica URLs serving the
// same partition:
//
//	tearouter -shards 'http://h0a:8080|http://h0b:8080,http://h1a:8080|http://h1b:8080'
//
// The router keeps a per-replica circuit breaker, prefers the healthiest /
// fastest replica for every request, and fails over to a sibling on a
// transport error or 503 — a single replica outage never surfaces to
// clients. Only a partition with every replica down answers 503 +
// Retry-After. /healthz and /readyz report the per-partition replica table,
// and the tea_router_replica_* metric family counts failovers and publishes
// breaker states.
//
// `tearouter -h` prints the flag table; the operational flags mirror
// teaserve's. A flag error exits 2 before any port is bound.
//
// Endpoints:
//
//	GET /healthz            cluster health rolled up from every shard's
//	                        /healthz: 503 "degraded" while any shard is
//	                        unreachable, 200 "degraded" while one reports
//	                        degraded storage, 200 "ok" otherwise
//	GET /readyz             200 only when every shard's /readyz is 200
//	GET /stats              every shard's /stats under one response
//	GET /walk?from=ID&length=80&count=1&seed=1    append &cost=1 for the
//	                        routed shard's cost_detail block, cluster-wide
//	GET /metrics            federated Prometheus exposition: the router's own
//	                        series unlabeled, per-shard series under
//	                        shard="<id>", cluster rollups under shard="all"
//	GET /metrics.json       the same federated snapshot as JSON
//	GET /debug/tea/trace    assembled cross-process traces (&format=chrome)
//	GET /debug/tea/flight   the router's flight recorder
//	GET /debug/tea/top      most expensive recent requests with cluster costs
package main

import (
	"os"

	"github.com/tea-graph/tea/cmd/internal/cli"
)

func main() { os.Exit(cli.Main("tearouter", os.Args[1:], os.Stderr, cli.Tearouter)) }
