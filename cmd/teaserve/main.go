// Command teaserve exposes temporal walk sampling over HTTP: load an edge
// stream, preprocess it once, and answer /walk, /ppr, and /reach queries.
//
// Usage:
//
//	teaserve -input graph.teag -algo exp -addr :8080
//
// Durable-ingest mode (mutually exclusive with -input): instead of a static
// preprocessed index, serve a live write-ahead-logged streaming graph.
// POST /edges and POST /expire mutate it, /walk and /stats read it, and on
// boot the WAL directory is recovered automatically — the listener binds
// immediately and GET /readyz answers 503 until replay completes.
//
//	teaserve -wal-dir /var/lib/tea -fsync always -snapshot-every 10000
//
//	-wal-dir            WAL + snapshot directory; enables durable mode
//	-fsync              durability policy: always|interval|never
//	-fsync-interval     flush cadence for -fsync interval
//	-snapshot-every     snapshot (and trim the log) every N mutations; 0 off
//	-snapshot-keep      snapshot generations to retain (0 = default 2)
//	-wal-segment-bytes  segment rotation threshold (0 = default)
//	-heal-interval      degraded-mode probe cadence (0 = default, negative off)
//	-wal-warn-ratio     warn when retained WAL exceeds this multiple of the
//	                    newest snapshot's size (0 = default 4, negative off)
//
// On a write-path fault (ENOSPC, a failed fsync) the durable graph degrades
// to read-only: walks keep serving, POST /edges and /expire answer 507 or
// 503 with Retry-After, and a background probe re-tries the device every
// -heal-interval, restoring writability automatically once it succeeds.
//
// Background integrity scrubbing (both durable and -ooc modes):
//
//	-scrub-interval   cadence of integrity passes over sealed WAL segments,
//	                  snapshot generations, and the -ooc block store;
//	                  0 disables scrubbing
//	-scrub-rate-mbps  scrub read-bandwidth budget (negative = unlimited)
//
// Scrub results feed the tea_scrub_* metric family and GET /healthz, which
// reports {"status":"degraded","storage":{...}} while damage is present.
//
// Operational flags:
//
//	-request-timeout   per-query deadline (0 disables; exceeded queries get 504)
//	-max-inflight      concurrent query cap (0 unlimited; excess sheds with 503)
//	-max-length        cap on the length parameter of /walk (400 beyond)
//	-drain             how long to wait for in-flight requests on shutdown
//	-pprof             expose net/http/pprof under /debug/pprof/ (off by default)
//	-instance          instance name stamped on tea_build_info, spans, and log
//	                   records (defaults to shard-<id> in shard mode)
//	-slow-request      warn-log any request slower than this with its full
//	                   cost breakdown (0 disables)
//
// Tracing flags (correlated request tracing; see DESIGN.md):
//
//	-trace-fraction    head-sample this fraction of requests into full span
//	                   traces served at /debug/tea/trace?id=<X-Request-ID>
//	-flight-spans      always-on flight recorder capacity (spans + error/
//	                   cancel/retry events) served at /debug/tea/flight;
//	                   0 disables
//
// Out-of-core flags (§4.1 serving mode: PAT trunks on disk, only trunk
// prefix sums in memory):
//
//	-ooc               sample from a disk-backed PAT instead of in-memory HPAT
//	-ooc-store         block store path (default: a temp file removed on exit)
//	-ooc-trunk         trunk size (0 = default)
//	-ooc-cache-bytes   block cache over trunk reads; 0 disables
//	-ooc-cache-policy  cache eviction policy: lru or clock
//
// With -ooc the tea_ooc_* and tea_blockcache_* metric families under
// /metrics report device traffic and cache effectiveness respectively.
//
// Shard mode (§4.4 distributed serving; mutually exclusive with -wal-dir and
// -ooc): serve one shard of a horizontally partitioned cluster. Every shard
// process loads the same graph file, keeps only the out-edges of the vertices
// an owner table cut from the graph's edge times assigns to it, and exchanges
// batched walker-migration frames with its peers over a compact binary RPC. Walks
// replay byte-identically to a single process for any shard count. Front the
// cluster with cmd/tearouter to merge the per-shard partial responses.
//
//	teaserve -input graph.teag -shard-id 0 \
//	    -shard-peers h0:9000,h1:9000,h2:9000 -addr :8080
//
//	-shard-id        this process's shard id (enables shard mode)
//	-shard-peers     RPC host:port of every shard, in shard-id order; the
//	                 comma count is the partition count. An entry may name
//	                 several "|"-separated replica addresses serving the same
//	                 partition: step batches prefer the healthiest replica
//	                 (per-replica circuit breakers) and fail over mid-request
//	                 — walkers carry their RNG state, so a sibling answers
//	                 the re-sent frames byte-identically
//	-shard-replica   which replica of its own partition this process is
//	                 (index into the "|" list; default 0)
//	-shard-rpc-addr  RPC listen address (default: own -shard-peers entry)
//	-shard-hedge     hedged step-RPCs: off (default), auto (launch a
//	                 duplicate on a sibling after the primary's observed
//	                 p99), or a fixed duration; first answer wins
//	-chaos           network fault injection on this process's RPC traffic
//	                 (testing only), e.g. "drop:peer=h1:9000,after=3" —
//	                 kinds: drop|delay|stall|reset|flip|partition
//	-chaos-seed      seed for randomized -chaos faults
//
// A replicated cluster — 2 partitions × 2 replicas — looks like:
//
//	PEERS='h0a:9000|h0b:9000,h1a:9000|h1b:9000'
//	teaserve -input g.teag -shard-id 0 -shard-replica 0 -shard-peers $PEERS ...
//	teaserve -input g.teag -shard-id 0 -shard-replica 1 -shard-peers $PEERS ...
//	teaserve -input g.teag -shard-id 1 -shard-replica 0 -shard-peers $PEERS ...
//	teaserve -input g.teag -shard-id 1 -shard-replica 1 -shard-peers $PEERS ...
//
// GET /healthz in shard mode reports this process's local view of every peer
// partition's replicas (breaker state, consecutive failures, latency EWMA).
//
// The server shuts down gracefully on SIGINT/SIGTERM: the listener closes
// immediately, in-flight requests get up to -drain to finish, and walk
// computations of dropped clients are cancelled via their request contexts.
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
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	tea "github.com/tea-graph/tea"
	"github.com/tea-graph/tea/internal/blockcache"
	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/netchaos"
	"github.com/tea-graph/tea/internal/ooc"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/scrub"
	"github.com/tea-graph/tea/internal/server"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/trace"
	"github.com/tea-graph/tea/internal/wal"
)

// streamWeightSpec maps the -algo flag onto a streaming weight spec.
// node2vec needs second-order state the streaming sampler does not keep.
func streamWeightSpec(algo string, lambda float64) (sampling.WeightSpec, error) {
	switch algo {
	case "uniform":
		return sampling.WeightSpec{Kind: sampling.WeightUniform}, nil
	case "linear":
		return sampling.WeightSpec{Kind: sampling.WeightLinearTime}, nil
	case "rank":
		return sampling.WeightSpec{Kind: sampling.WeightLinearRank}, nil
	case "exp":
		if lambda == 0 {
			lambda = 0.01 // no preloaded timespan to derive it from
		}
		return sampling.Exponential(lambda), nil
	case "node2vec":
		return sampling.WeightSpec{}, fmt.Errorf("node2vec is not supported in durable-ingest mode")
	default:
		return sampling.WeightSpec{}, fmt.Errorf("unknown algorithm %q", algo)
	}
}

func main() {
	var (
		input      = flag.String("input", "", "edge list path (.txt or binary .teag)")
		algo       = flag.String("algo", "exp", "walk algorithm: uniform|linear|rank|exp|node2vec")
		lambda     = flag.Float64("lambda", 0, "exponential decay (0 = auto: 50/timespan)")
		p          = flag.Float64("p", 0.5, "node2vec return parameter")
		q          = flag.Float64("q", 2, "node2vec in-out parameter")
		addr       = flag.String("addr", ":8080", "listen address")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-query deadline, 0 disables")
		maxFlight  = flag.Int("max-inflight", 64, "max concurrently executing queries, 0 unlimited")
		maxLength  = flag.Int("max-length", 0, "cap on the /walk length parameter, 0 = default (10000)")
		drain      = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain window")
		withPprof  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		shardID      = flag.Int("shard-id", -1, "shard mode: this process's shard id (requires -shard-peers; see cmd/tearouter)")
		shardPeers   = flag.String("shard-peers", "", "comma-separated RPC host:port of every shard in shard-id order; '|' separates a partition's replicas; the comma count is the partition count")
		shardReplica = flag.Int("shard-replica", 0, "which replica of its partition this process is (index into the '|' list of its -shard-peers entry)")
		shardRPC     = flag.String("shard-rpc-addr", "", "walker-migration RPC listen address (default: this shard's -shard-peers entry)")
		shardHedge   = flag.String("shard-hedge", "off", "hedged step-RPCs against sibling replicas: off|auto|<duration> (auto = primary's observed p99)")
		chaosSpec    = flag.String("chaos", "", "inject network faults on peer RPC conns, e.g. 'drop:peer=h1:9000,after=3;delay:delay=50ms' (testing only)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for randomized -chaos faults (byte flips)")

		oocMode        = flag.Bool("ooc", false, "serve out-of-core: PAT trunks on disk, trunk prefix sums in memory")
		oocStorePath   = flag.String("ooc-store", "", "block store path for -ooc (default: temp file removed on exit)")
		oocTrunk       = flag.Int("ooc-trunk", 0, "out-of-core trunk size (0 = default)")
		oocCacheBytes  = flag.Int64("ooc-cache-bytes", 64<<20, "block cache capacity over -ooc trunk reads, 0 disables")
		oocCachePolicy = flag.String("ooc-cache-policy", "lru", "block cache eviction policy: lru|clock")

		walDir        = flag.String("wal-dir", "", "durable-ingest mode: WAL + snapshot directory (mutually exclusive with -input)")
		fsyncPolicy   = flag.String("fsync", "always", "WAL durability policy: always|interval|never")
		fsyncInterval = flag.Duration("fsync-interval", 100*time.Millisecond, "flush cadence for -fsync interval")
		snapEvery     = flag.Int("snapshot-every", 10000, "snapshot and trim the WAL every N mutations, 0 disables")
		snapKeep      = flag.Int("snapshot-keep", 0, "snapshot generations to retain, 0 = default (2)")
		walSegBytes   = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold, 0 = default")
		healInterval  = flag.Duration("heal-interval", 0, "degraded-mode device probe cadence, 0 = default (2s), negative disables")
		walWarnRatio  = flag.Float64("wal-warn-ratio", 0, "warn when retained WAL exceeds this multiple of the snapshot size, 0 = default (4), negative disables")
		scrubEvery    = flag.Duration("scrub-interval", 5*time.Minute, "background integrity scrub cadence, 0 disables")
		scrubRate     = flag.Float64("scrub-rate-mbps", 32, "scrub read bandwidth budget in MB/s, negative = unlimited")

		traceFraction = flag.Float64("trace-fraction", 0, "fraction of requests head-sampled into full traces (0 disables, 1 traces every request)")
		flightSpans   = flag.Int("flight-spans", 1024, "flight recorder capacity (recent spans and error/cancel/retry events), 0 disables")
		instanceName  = flag.String("instance", "", "instance name stamped on metrics, spans, and logs (default: shard-<id> in shard mode, unlabeled otherwise)")
		slowReq       = flag.Duration("slow-request", 0, "warn-log requests slower than this with their cost breakdown, 0 disables")
		logJSON       = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()

	// Structured logging: every record carries request_id/trace_id when its
	// context does (the server threads both through request contexts).
	logger := server.NewLogger(os.Stderr, *logJSON)
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}
	ingestMode := *walDir != ""
	if ingestMode && *input != "" {
		fatal("flags", errors.New("-input and -wal-dir are mutually exclusive: serve a static index or a live stream, not both"))
	}
	if !ingestMode && *input == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *shardID >= 0 {
		switch {
		case ingestMode:
			fatal("flags", errors.New("-shard-id is incompatible with -wal-dir: shard mode serves a static partitioned index"))
		case *oocMode:
			fatal("flags", errors.New("-shard-id is incompatible with -ooc"))
		case *shardPeers == "":
			fatal("flags", errors.New("-shard-id requires -shard-peers"))
		case *algo == "node2vec":
			fatal("flags", errors.New("node2vec in shard mode would answer β's neighbor test from a Bloom filter, not exactly as one process does; use a first-order algorithm in shard mode"))
		}
	}

	// Stable instance identity: in shard mode every process names itself
	// shard-<id> by default, so the series, spans, and log records the router
	// merges from the cluster stay attributable to one process.
	instance := *instanceName
	if instance == "" && *shardID >= 0 {
		instance = fmt.Sprintf("shard-%d", *shardID)
		if *shardReplica > 0 {
			// Replicas of one partition stay distinguishable in federated
			// series and assembled traces.
			instance = fmt.Sprintf("shard-%d-r%d", *shardID, *shardReplica)
		}
	}
	traceShard := -1
	if *shardID >= 0 {
		traceShard = *shardID
	}
	tracer := trace.New(trace.Config{
		SampleFraction: *traceFraction,
		FlightSpans:    *flightSpans,
		Instance:       instance,
		Shard:          traceShard,
	})
	if tracer.Enabled() {
		logger.Info("tracing enabled",
			"trace_fraction", *traceFraction,
			"flight_spans", *flightSpans,
			"trace_endpoint", "/debug/tea/trace",
			"flight_endpoint", "/debug/tea/flight")
	}
	scfg := server.Config{
		RequestTimeout:       *reqTimeout,
		MaxInFlight:          *maxFlight,
		MaxWalkLength:        *maxLength,
		Instance:             instance,
		ShardID:              traceShard,
		SlowRequestThreshold: *slowReq,
		Trace:                tracer,
		Logger:               logger,
	}

	serve := srvParams{addr: *addr, drain: *drain, pprof: *withPprof, logger: logger}
	var durableGraph atomic.Pointer[stream.DurableGraph]
	if ingestMode {
		spec, err := streamWeightSpec(*algo, *lambda)
		if err != nil {
			fatal("bad algorithm for ingest mode", err)
		}
		policy, err := wal.ParsePolicy(*fsyncPolicy)
		if err != nil {
			fatal("bad fsync policy", err)
		}
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			fatal("wal dir", err)
		}
		s := server.NewDurable(scfg)
		var scrubber atomic.Pointer[scrub.Scrubber]
		// Recover in the background so the listener binds immediately;
		// /readyz answers 503 (with replay progress) until SetDurable flips
		// the server ready.
		go func() {
			start := time.Now()
			d, err := stream.OpenDurable(*walDir, stream.DurableConfig{
				Graph:         stream.Config{Weight: spec},
				WAL:           wal.Options{Policy: policy, Interval: *fsyncInterval, SegmentBytes: *walSegBytes},
				SnapshotEvery: *snapEvery,
				SnapshotKeep:  *snapKeep,
				HealInterval:  *healInterval,
				WALWarnRatio:  *walWarnRatio,
				Tracer:        tracer,
				Logger:        logger,
				Progress:      s.ReportRecoveryProgress,
			})
			if err != nil {
				fatal("recovery failed", err)
			}
			durableGraph.Store(d)
			s.SetDurable(d)
			if *scrubEvery > 0 {
				sc := scrub.New(scrub.Config{Interval: *scrubEvery, RateMBps: *scrubRate, Logger: logger},
					scrub.Files{
						TargetName: "wal",
						List: func() ([]string, error) {
							segs := d.Log().SealedSegments()
							paths := make([]string, len(segs))
							for i, seg := range segs {
								paths[i] = seg.Path
							}
							return paths, nil
						},
						Verify: func(path string, bill func(int) error) error {
							return wal.VerifySegment(nil, path, bill)
						},
					},
					scrub.Files{
						TargetName: "snapshot",
						List:       func() ([]string, error) { return d.SnapshotPaths(), nil },
						Verify: func(path string, bill func(int) error) error {
							_, err := stream.VerifySnapshotFile(nil, path, bill)
							return err
						},
					})
				s.SetScrubber(sc)
				scrubber.Store(sc)
				sc.Start()
			}
			ri := d.Recovery()
			logger.Info("recovered",
				"wal_dir", *walDir,
				"fsync", policy.String(),
				"edges", d.NumEdges(),
				"replayed_records", ri.Replayed,
				"snapshot_lsn", ri.SnapshotLSN,
				"truncated_bytes", ri.TruncatedBytes,
				"elapsed", time.Since(start).Round(time.Millisecond))
		}()
		logger.Info("listening",
			"addr", *addr,
			"mode", "durable-ingest",
			"timeout", *reqTimeout,
			"max_inflight", *maxFlight)
		serve.onShutdown = func() {
			if sc := scrubber.Load(); sc != nil {
				sc.Stop()
			}
			if d := durableGraph.Load(); d != nil {
				if err := d.Close(); err != nil {
					logger.Error("wal close", "error", err)
				}
			}
		}
		serveHTTP(s.Handler(), serve)
		return
	}

	var (
		g   *tea.Graph
		err error
	)
	if strings.HasSuffix(*input, ".teag") || strings.HasSuffix(*input, ".bin") {
		g, err = tea.LoadBinaryFile(*input)
	} else {
		g, err = tea.LoadTextFile(*input)
	}
	if err != nil {
		fatal("load failed", err)
	}
	lo, hi := g.TimeRange()
	if *lambda == 0 {
		span := float64(hi - lo)
		if span <= 0 {
			span = 1
		}
		*lambda = 50 / span
	}
	var app tea.App
	switch *algo {
	case "uniform":
		app = tea.Unbiased()
	case "linear":
		app = tea.LinearTime()
	case "rank":
		app = tea.LinearRank()
	case "exp":
		app = tea.ExponentialWalk(*lambda)
	case "node2vec":
		app = tea.TemporalNode2Vec(*p, *q, *lambda)
	default:
		fatal("unknown algorithm", fmt.Errorf("%q", *algo))
	}

	if *shardID >= 0 {
		runShard(g, app, scfg, shardOpts{
			id:        *shardID,
			replica:   *shardReplica,
			peers:     *shardPeers,
			rpcAddr:   *shardRPC,
			hedge:     *shardHedge,
			chaos:     *chaosSpec,
			chaosSeed: *chaosSeed,
			srvParams: serve,
			tracer:    tracer,
			fatal:     fatal,
		})
		return
	}

	start := time.Now()
	var opts tea.Options
	var oocStoreFile string
	if *oocMode {
		policy, err := blockcache.ParsePolicy(*oocCachePolicy)
		if err != nil {
			fatal("bad cache policy", err)
		}
		w, err := sampling.BuildGraphWeights(g, app.Weight, 0)
		if err != nil {
			fatal("weight build failed", err)
		}
		var store *ooc.Store
		if *oocStorePath != "" {
			store, err = ooc.Open(*oocStorePath)
		} else {
			store, err = ooc.NewTempStore()
		}
		if err != nil {
			fatal("store open failed", err)
		}
		defer store.Close()
		dp, err := ooc.BuildDiskPAT(w, store, *oocTrunk)
		if err != nil {
			fatal("disk PAT build failed", err)
		}
		store.ResetCounters() // device counters report serving traffic, not the build
		oocStoreFile = store.Path()
		if *oocCacheBytes > 0 {
			dp.EnableCache(ooc.CacheConfig{CapacityBytes: *oocCacheBytes, Policy: policy})
			fmt.Printf("teaserve: out-of-core store %s (block cache %d MiB, policy %s)\n",
				store.Path(), *oocCacheBytes>>20, policy)
		} else {
			fmt.Printf("teaserve: out-of-core store %s (block cache disabled)\n", store.Path())
		}
		opts.ExternalSampler = dp
		opts.ExternalWeights = w
	}
	eng, err := tea.NewEngine(g, app, opts)
	if err != nil {
		fatal("engine build failed", err)
	}
	logger.Info("preprocessed",
		"application", app.Name,
		"vertices", g.NumVertices(),
		"edges", g.NumEdges(),
		"elapsed", time.Since(start).Round(time.Millisecond))
	logger.Info("listening",
		"addr", *addr,
		"timeout", *reqTimeout,
		"max_inflight", *maxFlight)

	srv := server.NewWithConfig(eng, scfg)
	var staticScrub *scrub.Scrubber
	if *oocMode && *scrubEvery > 0 {
		// The block store is written once by the build above and then only
		// read, so a chunk-CRC baseline taken now detects any later change:
		// bit rot, a lost write, an overwrite by another process.
		staticScrub = scrub.New(scrub.Config{Interval: *scrubEvery, RateMBps: *scrubRate, Logger: logger},
			&scrub.ChunkBaseline{TargetName: "ooc-store", Path: oocStoreFile})
		srv.SetScrubber(staticScrub)
		staticScrub.Start()
	}
	serve.onShutdown = func() {
		if staticScrub != nil {
			staticScrub.Stop()
		}
	}
	serveHTTP(srv.Handler(), serve)
}

// shardOpts carries the shard-mode knobs from flag parsing to runShard.
type shardOpts struct {
	id        int
	replica   int
	peers     string
	rpcAddr   string
	hedge     string
	chaos     string
	chaosSeed int64
	srvParams
	tracer *trace.Tracer
	fatal  func(string, error)
}

// parseHedge maps the -shard-hedge flag onto a hedge config.
func parseHedge(s string) (shard.HedgeConfig, error) {
	switch s {
	case "", "off":
		return shard.HedgeConfig{}, nil
	case "auto":
		return shard.HedgeConfig{Enabled: true}, nil
	default:
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return shard.HedgeConfig{}, fmt.Errorf("-shard-hedge %q: want off, auto, or a positive duration", s)
		}
		return shard.HedgeConfig{Enabled: true, Delay: d}, nil
	}
}

// runShard serves one shard of a partitioned cluster: a binary-RPC listener
// answers peer step batches (walker migration) while the HTTP server answers
// /walk for the walks whose source vertex this shard owns. Every shard
// process loads the same graph file; the owner table is a pure function of
// that file, so they agree on vertex ownership with no coordination. A partition may be
// served by several interchangeable replicas ('|' in its -shard-peers
// entry): step batches fail over between a peer partition's replicas, and
// -shard-hedge duplicates slow step-RPCs against a sibling. Front the
// cluster with cmd/tearouter to get the single-process response shape back.
func runShard(g *tea.Graph, app tea.App, scfg server.Config, o shardOpts) {
	parts, err := shard.ParseReplicaList(strings.Split(o.peers, ",")) // [partition][replica]
	if err != nil {
		o.fatal("flags", fmt.Errorf("-shard-peers: %w", err))
	}
	if o.id >= len(parts) {
		o.fatal("flags", fmt.Errorf("-shard-id %d outside the %d-entry -shard-peers list", o.id, len(parts)))
	}
	if o.replica < 0 || o.replica >= len(parts[o.id]) {
		o.fatal("flags", fmt.Errorf("-shard-replica %d outside this partition's %d-replica list", o.replica, len(parts[o.id])))
	}
	hedge, err := parseHedge(o.hedge)
	if err != nil {
		o.fatal("flags", err)
	}

	start := time.Now()
	node, err := shard.NewNode(g, app.Weight, shard.Config{
		ShardID:    o.id,
		Partitions: len(parts),
		Tracer:     o.tracer,
	})
	if err != nil {
		o.fatal("shard build failed", err)
	}
	rpcAddr := o.rpcAddr
	if rpcAddr == "" {
		rpcAddr = parts[o.id][o.replica]
	}
	ln, err := net.Listen("tcp", rpcAddr)
	if err != nil {
		o.fatal("shard rpc listen failed", err)
	}
	clientCfg := wire.ClientConfig{}
	if o.chaos != "" {
		// Fault injection for chaos drills: the plan wraps both directions of
		// this process's RPC traffic — outbound peer dials and inbound
		// migration conns — exactly like FaultFS wraps the WAL's filesystem.
		faults, err := netchaos.Parse(o.chaos)
		if err != nil {
			o.fatal("flags", err)
		}
		plan := fault.New(o.chaosSeed, faults...)
		clientCfg.Dialer = netchaos.Dial(plan)
		ln = netchaos.Listener(plan, ln)
		o.logger.Warn("network chaos enabled", "spec", o.chaos, "seed", o.chaosSeed)
	}
	wireSrv := wire.NewServer(ln, node, o.logger)
	peerAddrs := make(map[int][]string, len(parts)-1)
	for pid, replicas := range parts {
		if pid != o.id {
			peerAddrs[pid] = replicas
		}
	}
	callers := shard.NewReplicaPeers(peerAddrs, shard.ReplicaPeersConfig{
		Client: clientCfg,
		Hedge:  hedge,
	})

	o.logger.Info("shard ready",
		"shard", o.id,
		"replica", o.replica,
		"partitions", len(parts),
		"application", app.Name,
		"rpc_addr", ln.Addr().String(),
		"hedge", o.hedge,
		"owned_edges", node.OwnedEdges(),
		"index_bytes", node.MemoryBytes(),
		"elapsed", time.Since(start).Round(time.Millisecond))
	o.logger.Info("listening", "addr", o.addr, "mode", "shard")

	srv := server.NewShard(node, callers, scfg)
	o.onShutdown = func() {
		_ = wireSrv.Close()
		callers.Close()
	}
	serveHTTP(srv.Handler(), o.srvParams)
}

// srvParams carries the operational knobs serveHTTP needs.
type srvParams struct {
	addr   string
	drain  time.Duration
	pprof  bool
	logger *slog.Logger
	// onShutdown runs after the listener drains, before exit — durable mode
	// flushes and closes the WAL here.
	onShutdown func()
}

// serveHTTP runs the listener until SIGINT/SIGTERM, then drains gracefully.
func serveHTTP(handler http.Handler, p srvParams) {
	if p.pprof {
		// Opt-in profiling: the pprof endpoints expose stacks and heap
		// contents, so they stay off unless explicitly requested.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		p.logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		p.logger.Error("serve failed", "error", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // restore default signal behavior: a second signal kills hard
	if err := server.Serve(ctx, ln, handler, p.drain, p.logger, p.onShutdown); err != nil {
		os.Exit(1)
	}
}
