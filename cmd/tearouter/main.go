// Command tearouter is the stateless front of a teaserve shard cluster: it
// holds no graph and no index, only the shard addresses, fans every /walk to
// all shards with the request's X-Request-ID attached, and merges the partial
// responses by global walk id into exactly the single-process response shape.
// Because it keeps no state, any number of router replicas can front the same
// cluster behind a plain TCP load balancer.
//
// Usage:
//
//	tearouter -shards http://h0:8080,http://h1:8080,http://h2:8080 -addr :8090
//
// The -shards list must be in shard-id order and match the -shard-peers list
// the shards themselves were started with (same length = same partition
// count); a mismatch is detected per-request and answered with 502.
//
// A -shards entry may name several "|"-separated replica URLs serving the
// same partition:
//
//	tearouter -shards 'http://h0a:8080|http://h0b:8080,http://h1a:8080|http://h1b:8080'
//
// The router keeps a per-replica circuit breaker, prefers the healthiest /
// fastest replica for every fanned request, and fails over to a sibling on a
// transport error or 503 — a single replica outage never surfaces to
// clients. Only a partition with every replica down answers 503 +
// Retry-After. /healthz and /readyz report the per-partition replica table,
// and the tea_router_replica_* metric family counts failovers and publishes
// breaker states.
//
// Operational flags mirror teaserve:
//
//	-request-timeout   per-fanout deadline (0 disables; exceeded queries 504)
//	-max-inflight      concurrent fan-out cap (0 unlimited; excess sheds 503)
//	-retry-after       Retry-After hint on 503s (shed, shard down)
//	-drain             graceful-shutdown drain window
//	-trace-fraction    head-sample fraction for /debug/tea/trace
//	-flight-spans      flight recorder capacity; 0 disables
//	-slow-request      warn-log any request slower than this, with its full
//	                   cluster cost breakdown (0 disables)
//	-log-json          structured logs as JSON
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
//	                        merged per-shard cost_detail block
//	GET /metrics            federated Prometheus exposition: the router's own
//	                        series unlabeled, per-shard series under
//	                        shard="<id>", cluster rollups under shard="all"
//	GET /metrics.json       the same federated snapshot as JSON
//	GET /debug/tea/trace    assembled cross-process traces (&format=chrome)
//	GET /debug/tea/flight   the router's flight recorder
//	GET /debug/tea/top      most expensive recent requests with cluster costs
package main

import (
	"context"
	"flag"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/tea-graph/tea/internal/server"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/trace"
)

func main() {
	var (
		shards        = flag.String("shards", "", "comma-separated shard base URLs in shard-id order (required)")
		addr          = flag.String("addr", ":8090", "listen address")
		reqTimeout    = flag.Duration("request-timeout", 30*time.Second, "per-fanout deadline, 0 disables")
		maxFlight     = flag.Int("max-inflight", 256, "max concurrently executing fan-outs, 0 unlimited")
		retryAfter    = flag.Duration("retry-after", time.Second, "Retry-After hint attached to 503 responses")
		drain         = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain window")
		traceFraction = flag.Float64("trace-fraction", 0, "fraction of requests head-sampled into full traces (0 disables)")
		flightSpans   = flag.Int("flight-spans", 1024, "flight recorder capacity, 0 disables")
		slowReq       = flag.Duration("slow-request", 0, "warn-log requests slower than this with their cluster cost breakdown, 0 disables")
		logJSON       = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()

	logger := server.NewLogger(os.Stderr, *logJSON)

	if *shards == "" {
		flag.Usage()
		os.Exit(2)
	}
	parts, err := shard.ParseReplicaList(strings.Split(*shards, ","))
	if err != nil {
		logger.Error("-shards", "error", err)
		os.Exit(2)
	}
	// Normalize every replica URL and keep each partition's replicas joined.
	addrs := make([]string, len(parts))
	for i, replicas := range parts {
		for j, a := range replicas {
			if !strings.Contains(a, "://") {
				a = "http://" + a
			}
			replicas[j] = strings.TrimRight(a, "/")
		}
		addrs[i] = strings.Join(replicas, "|")
	}

	tracer := trace.New(trace.Config{
		SampleFraction: *traceFraction,
		FlightSpans:    *flightSpans,
		Instance:       "router",
		Shard:          -1,
	})
	rt, err := server.NewRouter(server.RouterConfig{
		Shards:               addrs,
		RequestTimeout:       *reqTimeout,
		MaxInFlight:          *maxFlight,
		RetryAfter:           *retryAfter,
		SlowRequestThreshold: *slowReq,
		Trace:                tracer,
		Logger:               logger,
	})
	if err != nil {
		logger.Error("router", "error", err)
		os.Exit(1)
	}

	logger.Info("routing",
		"addr", *addr,
		"shards", len(addrs),
		"timeout", *reqTimeout,
		"max_inflight", *maxFlight)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // restore default signal behavior: a second signal kills hard
	if err := server.Serve(ctx, ln, rt.Handler(), *drain, logger, rt.Close); err != nil {
		os.Exit(1)
	}
}
