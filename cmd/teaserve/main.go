// Command teaserve exposes temporal walk sampling over HTTP. It runs one of
// three modes, chosen by its flags; `teaserve -h` prints the flag table
// (cli.Teaserve), the one reference for every flag.
//
// Engine mode loads an edge stream, preprocesses it once and answers /walk,
// /ppr and /reach. With -ooc it samples from a disk-backed PAT (§4.1) and
// keeps only trunk prefix sums in memory; the tea_ooc_* and tea_blockcache_*
// metric families report device traffic and cache effectiveness.
//
//	teaserve -input graph.teag -algo exp -addr :8080
//	teaserve -input graph.teag -ooc -ooc-cache-bytes 16777216 -addr :8080
//
// Durable mode serves a live write-ahead-logged stream graph instead of a
// static index: POST /edges and POST /expire mutate it, /walk and /stats
// read it. The listener binds at once and GET /readyz answers 503 until the
// WAL directory is recovered. On a write-path fault (ENOSPC, a failed
// fsync) the graph degrades to read-only: walks keep serving, the mutations
// answer 507 or 503 with Retry-After, and a background probe restores
// writability once the device recovers.
//
//	teaserve -wal-dir /var/lib/tea -fsync always -snapshot-every 10000
//
// Durable and out-of-core mode scrub their files in the background; damage
// feeds the tea_scrub_* family and turns GET /healthz "degraded".
//
// Shard mode serves one partition of a horizontally partitioned cluster
// (§4.4). Every shard process loads the same graph file, keeps the out-edges
// of the vertices an owner table cut from the graph's edge times assigns to
// it, and exchanges batched walker-migration frames with its peers over a
// binary RPC. Walks replay byte-identically to one process for any shard
// count. Front the cluster with cmd/tearouter. A -shard-peers entry may name
// several "|"-separated replicas of one partition: step batches prefer the
// healthiest and fail over mid-request, since walkers carry their RNG state.
// A cluster of 2 partitions × 2 replicas:
//
//	PEERS='h0a:9000|h0b:9000,h1a:9000|h1b:9000'
//	teaserve -input g.teag -shard-id 0 -shard-replica 0 -shard-peers $PEERS
//	teaserve -input g.teag -shard-id 0 -shard-replica 1 -shard-peers $PEERS
//	teaserve -input g.teag -shard-id 1 -shard-replica 0 -shard-peers $PEERS
//	teaserve -input g.teag -shard-id 1 -shard-replica 1 -shard-peers $PEERS
//
// A flag of a mode that was not chosen is an error, as is every other
// invalid combination: each exits 2 before the graph loads. The server
// shuts down gracefully on SIGINT/SIGTERM: the listener closes, in-flight
// requests get up to -drain to finish.
//
// Endpoints:
//
//	GET /healthz
//	GET /readyz             503 while recovering a WAL, 200 once serving
//	GET /stats
//	GET /metrics            Prometheus text exposition format
//	GET /metrics.json       the same snapshot as JSON
//	GET /walk?from=ID&length=80&count=1&seed=1    append &cost=1 for the
//	                        per-request cost_detail block
//	GET /ppr?from=ID&walks=10000&alpha=0.15&topk=20
//	GET /reach?from=ID&after=T
//	GET /debug/tea/top      most expensive recent requests with costs
//	POST /edges             durable mode: JSON {"edges":[{"src","dst","t"},...]}
//	POST /expire?before=T   durable mode: drop edges older than T
package main

import (
	"os"

	"github.com/tea-graph/tea/cmd/internal/cli"
)

func main() { os.Exit(cli.Main("teaserve", os.Args[1:], os.Stderr, cli.Teaserve)) }
