// Deployment: one serving process as one validated value. The flag tables of
// teaserve and tearouter (cmd/internal/cli) fill one and call Run.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"strings"
	"time"

	"github.com/tea-graph/tea/internal/blockcache"
	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/edgeio"
	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/netchaos"
	"github.com/tea-graph/tea/internal/ooc"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/scrub"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/trace"
	"github.com/tea-graph/tea/internal/wal"
)

// Deployment is one serving process: the operational Config, the listener,
// exactly one mode section (Engine, Durable, Shard or Router) and the option
// sections that mode accepts. Validate refuses every invalid combination
// without reading a file or binding a port; Run builds the mode and serves
// it. Errors name the command-line flag of the offending field.
type Deployment struct {
	Config
	// Addr is the HTTP listen address, Drain the graceful-shutdown window
	// (see Serve); Pprof mounts net/http/pprof under /debug/pprof/.
	Addr  string
	Drain time.Duration
	Pprof bool
	// LogJSON and Tracing shape the logger and tracer Run builds when
	// Config.Logger or Config.Trace is nil; Run stamps Instance and Shard.
	LogJSON bool
	Tracing trace.Config

	// Input is the edge file of the engine and shard modes; App the walk
	// application of every mode but the router. A zero Lambda is 50 over the
	// loaded graph's time span, or 0.01 in durable mode, which loads none.
	Input string
	App   core.AppSpec

	// OOC tunes Engine.OutOfCore, Scrub the background integrity scrub of
	// the durable and out-of-core modes (an Interval of 0 turns it off);
	// nil means DefaultOOC and DefaultScrub.
	OOC   *OOCOptions
	Scrub *scrub.Config

	Engine  *EngineMode
	Durable *DurableMode
	Shard   *ShardMode
	Router  *RouterMode
}

// EngineMode serves a preprocessed index of Input: /walk, /ppr and /reach.
// OutOfCore samples from a disk-backed PAT (§4.1) with only trunk prefix
// sums in memory, instead of the in-memory HPAT.
type EngineMode struct{ OutOfCore bool }

// OOCOptions tune the out-of-core engine: the block store path (empty: a
// temp file removed when Run returns), the block cache capacity over trunk
// reads (0 disables it) and its eviction policy, lru or clock.
type OOCOptions struct {
	Store       string
	CacheBytes  int64
	CachePolicy string
}

// DurableMode serves a live write-ahead-logged stream graph in Dir that
// POST /edges and /expire mutate. The listener binds at once and /readyz
// answers 503 until the directory is recovered. Fsync is always, interval
// or never; the rest are wal.Options and stream.DurableConfig fields.
type DurableMode struct {
	Dir, Fsync                  string
	FsyncInterval, HealInterval time.Duration
	SegmentBytes                int64
	SnapshotEvery, SnapshotKeep int
}

// ShardMode serves partition ID of a cluster (§4.4) over Input.
type ShardMode struct {
	ID int
	// Peers is every partition's RPC address in shard-id order,
	// comma-separated, with "|" between the replicas of one partition;
	// Replica is this process's index in its own entry, and RPCAddr its
	// listen address if not that entry.
	Peers   string
	Replica int
	RPCAddr string
	// Hedge duplicates slow step RPCs on a sibling replica: off, auto (after
	// the primary's observed p99) or a positive duration.
	Hedge string
	// Chaos is a netchaos fault spec over this process's RPC traffic, drawn
	// from a plan seeded with ChaosSeed. Testing only.
	Chaos     string
	ChaosSeed int64
}

// RouterMode fronts a shard cluster; Shards is RouterConfig.Shards joined
// by commas.
type RouterMode struct{ Shards string }

// Defaults of the option sections; the flag tables show them in -h.
var (
	DefaultOOC   = OOCOptions{CacheBytes: 64 << 20, CachePolicy: "lru"}
	DefaultScrub = scrub.Config{Interval: 5 * time.Minute, RateMBps: 32}
)

const (
	durableFlags = "-fsync, -fsync-interval, -snapshot-every, -snapshot-keep, -wal-segment-bytes, -heal-interval"
	shardFlags   = "-shard-peers, -shard-replica, -shard-rpc-addr, -shard-hedge, -chaos, -chaos-seed"
)

// Validate reports the first invalid field or combination. It reads no file
// and binds no port.
func (d *Deployment) Validate() error {
	modes := 0
	for _, on := range []bool{d.Engine != nil, d.Durable != nil, d.Shard != nil, d.Router != nil} {
		if on {
			modes++
		}
	}
	outOfCore := d.Engine != nil && d.Engine.OutOfCore
	switch {
	case modes != 1:
		return fmt.Errorf("flags of %d modes: set those of one — engine (-input, -ooc), durable (-wal-dir, %s), shard (-shard-id, %s) or router (-shards)", modes, durableFlags, shardFlags)
	case d.OOC != nil && !outOfCore:
		return errors.New("-ooc-store, -ooc-cache-bytes and -ooc-cache-policy need -ooc")
	case d.Scrub != nil && !outOfCore && d.Durable == nil:
		return errors.New("-scrub-interval and -scrub-rate-mbps apply only with -wal-dir or -ooc")
	case d.Router != nil && (d.Input != "" || d.App != (core.AppSpec{})):
		return errors.New("-input and -algo are not router flags")
	case d.Router != nil:
		if _, err := shard.ParseReplicaList(strings.Split(d.Router.Shards, ",")); err != nil {
			return fmt.Errorf("-shards: %w", err)
		}
		return nil
	}
	if d.OOC != nil {
		if _, err := blockcache.ParsePolicy(d.OOC.CachePolicy); err != nil {
			return fmt.Errorf("-ooc-cache-policy: %w", err)
		}
	}
	app, err := d.App.App(nil)
	switch dm := d.Durable; {
	case err != nil:
		return err
	case dm != nil && dm.Dir == "":
		return errors.New(durableFlags + " are durable-mode flags: set -wal-dir")
	case dm != nil && d.Input != "":
		return errors.New("-input and -wal-dir are mutually exclusive: serve a static index or a live stream, not both")
	case dm != nil && app.Parameter != nil:
		return fmt.Errorf("-algo %s: durable mode keeps no second-order state; use a first-order algorithm", d.App.Algo)
	case dm != nil:
		if _, err := wal.ParsePolicy(dm.Fsync); err != nil {
			return fmt.Errorf("-fsync: %w", err)
		}
	case d.Input == "":
		return errors.New("-input: required (or -wal-dir for a live stream graph)")
	case d.Shard != nil && app.Parameter != nil:
		return errors.New("-algo node2vec in shard mode would answer β's neighbor test from a Bloom filter, not exactly as one process does; use a first-order algorithm")
	case d.Shard != nil:
		_, _, _, err = d.Shard.parse()
	}
	return err
}

// parse resolves the shard section: the peer table [partition][replica],
// the hedge policy and the chaos faults.
func (s *ShardMode) parse() (parts [][]string, hedge shard.HedgeConfig, faults []fault.Fault, err error) {
	if s.ID < 0 {
		return nil, hedge, nil, errors.New(shardFlags + " are shard-mode flags: set -shard-id")
	}
	if parts, err = shard.ParseReplicaList(strings.Split(s.Peers, ",")); err != nil {
		return nil, hedge, nil, fmt.Errorf("-shard-peers: %w", err)
	}
	if s.ID >= len(parts) {
		return nil, hedge, nil, fmt.Errorf("-shard-id %d outside the %d-entry -shard-peers list", s.ID, len(parts))
	}
	if s.Replica < 0 || s.Replica >= len(parts[s.ID]) {
		return nil, hedge, nil, fmt.Errorf("-shard-replica %d outside this partition's %d-replica list", s.Replica, len(parts[s.ID]))
	}
	if s.Hedge != "off" && s.Hedge != "" {
		hedge.Enabled = true
		if s.Hedge != "auto" {
			if hedge.Delay, err = time.ParseDuration(s.Hedge); err != nil || hedge.Delay <= 0 {
				return nil, hedge, nil, fmt.Errorf("-shard-hedge %q: want off, auto, or a positive duration", s.Hedge)
			}
		}
	}
	if s.Chaos != "" {
		if faults, err = netchaos.Parse(s.Chaos); err != nil {
			return nil, hedge, nil, fmt.Errorf("-chaos: %w", err)
		}
	}
	return parts, hedge, faults, nil
}

// Run validates d, builds its mode and serves it on Addr until ctx is done,
// then drains (see Serve). Whatever it built — scrubbers, the RPC listener,
// the WAL, a temp block store — is released on every return. A failed WAL
// recovery stops the server and is returned.
func (d Deployment) Run(ctx context.Context) error {
	if err := d.Validate(); err != nil {
		return err
	}
	d.ShardID = -1
	switch s := d.Shard; {
	case s != nil && d.Instance == "" && s.Replica > 0:
		d.Instance = fmt.Sprintf("shard-%d-r%d", s.ID, s.Replica) // replicas stay apart in merged series and traces
	case s != nil && d.Instance == "":
		d.Instance = fmt.Sprintf("shard-%d", s.ID)
	case d.Router != nil:
		d.Instance = "router"
	}
	if d.Shard != nil {
		d.ShardID = d.Shard.ID
	}
	if d.Logger == nil {
		d.Logger = NewLogger(os.Stderr, d.LogJSON)
	}
	if d.Trace == nil {
		d.Tracing.Instance, d.Tracing.Shard = d.Instance, d.ShardID
		d.Trace = trace.New(d.Tracing)
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	r := &run{Deployment: d, fail: cancel}
	defer r.release()
	build, mode := r.router, "router"
	switch {
	case d.Engine != nil:
		build, mode = r.engine, "engine"
	case d.Durable != nil:
		build, mode = r.durable, "durable-ingest"
	case d.Shard != nil:
		build, mode = r.shard, "shard"
	}
	h, err := build()
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		return err
	}
	if d.Pprof {
		mux := http.NewServeMux()
		mux.Handle("/", h)
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		h = mux
	}
	d.Logger.Info("listening", "addr", ln.Addr().String(), "mode", mode, "timeout", d.RequestTimeout,
		"max_inflight", d.MaxInFlight, "pprof", d.Pprof, "trace_fraction", d.Tracing.SampleFraction)
	err = Serve(ctx, ln, h, d.Drain, d.Logger, r.release)
	if cause := context.Cause(ctx); err == nil && cause != ctx.Err() {
		err = cause // the recovery failed
	}
	return err
}

// run is one Run in progress: the deployment and what it must release.
type run struct {
	Deployment
	fail    context.CancelCauseFunc
	closers []func()
}

// release undoes the build, newest first: Serve calls it after the drain,
// and Run on every return.
func (r *run) release() {
	for ; len(r.closers) > 0; r.closers = r.closers[:len(r.closers)-1] {
		r.closers[len(r.closers)-1]()
	}
}

// load reads Input and builds the walk application for its time span.
func (r *run) load() (*temporal.Graph, core.App, error) {
	g, err := edgeio.LoadGraph(r.Input, nil)
	if err != nil {
		return nil, core.App{}, fmt.Errorf("load %s: %w", r.Input, err)
	}
	app, err := r.App.App(g)
	return g, app, err
}

// scrubber starts the background integrity scrub over targets, reported on
// s's /healthz; nil when Scrub turns it off.
func (r *run) scrubber(s *Server, targets ...scrub.Target) *scrub.Scrubber {
	cfg := DefaultScrub
	if r.Scrub != nil {
		cfg = *r.Scrub
	}
	if cfg.Interval <= 0 {
		return nil
	}
	cfg.Logger = r.Logger
	sc := scrub.New(cfg, targets...)
	s.SetScrubber(sc)
	sc.Start()
	return sc
}

// engine builds the engine mode, out of core when asked.
func (r *run) engine() (http.Handler, error) {
	start := time.Now()
	g, app, err := r.load()
	if err != nil {
		return nil, err
	}
	var opts core.Options
	var store *ooc.Store
	if r.Engine.OutOfCore {
		o := DefaultOOC
		if r.OOC != nil {
			o = *r.OOC
		}
		w, err := sampling.BuildGraphWeights(g, app.Weight, 0)
		if err != nil {
			return nil, err
		}
		if o.Store != "" {
			store, err = ooc.Open(o.Store)
		} else {
			store, err = ooc.NewTempStore()
		}
		if err != nil {
			return nil, err
		}
		r.closers = append(r.closers, func() { store.Close() })
		dp, err := ooc.BuildDiskPAT(w, store, ooc.DefaultTrunkSize)
		if err != nil {
			return nil, fmt.Errorf("disk PAT build: %w", err)
		}
		store.ResetCounters() // device counters report serving traffic, not the build
		if o.CacheBytes > 0 {
			policy, _ := blockcache.ParsePolicy(o.CachePolicy)
			dp.EnableCache(ooc.CacheConfig{CapacityBytes: o.CacheBytes, Policy: policy})
		}
		r.Logger.Info("out-of-core store", "path", store.Path(), "cache_bytes", o.CacheBytes, "cache_policy", o.CachePolicy)
		opts.ExternalSampler, opts.ExternalWeights = dp, w
	}
	eng, err := core.NewEngine(g, app, opts)
	if err != nil {
		return nil, err
	}
	r.Logger.Info("preprocessed", "application", app.Name, "vertices", g.NumVertices(), "edges", g.NumEdges(),
		"elapsed", time.Since(start).Round(time.Millisecond))
	srv := NewWithConfig(eng, r.Config)
	if store != nil {
		// The block store is written once by the build above and then only
		// read, so a chunk-CRC baseline taken now detects any later change:
		// bit rot, a lost write, an overwrite by another process.
		if sc := r.scrubber(srv, &scrub.ChunkBaseline{TargetName: "ooc-store", Path: store.Path()}); sc != nil {
			r.closers = append(r.closers, sc.Stop)
		}
	}
	return srv.Handler(), nil
}

// durable builds the durable-ingest mode. Recovery runs in the background,
// so /readyz reports its progress; shutdown waits for a recovery in flight
// and then closes what it opened.
func (r *run) durable() (http.Handler, error) {
	dm := r.Durable
	app, _ := r.App.App(nil)
	policy, _ := wal.ParsePolicy(dm.Fsync)
	s := NewDurable(r.Config)
	recovered := make(chan struct{})
	var (
		dg *stream.DurableGraph
		sc *scrub.Scrubber
	)
	r.closers = append(r.closers, func() {
		<-recovered
		if sc != nil {
			sc.Stop()
		}
		if dg != nil {
			if err := dg.Close(); err != nil {
				r.Logger.Error("wal close", "error", err)
			}
		}
	})
	go func() {
		defer close(recovered)
		start := time.Now()
		g, err := stream.OpenDurable(dm.Dir, stream.DurableConfig{
			Graph:         stream.Config{Weight: app.Weight},
			WAL:           wal.Options{Policy: policy, Interval: dm.FsyncInterval, SegmentBytes: dm.SegmentBytes},
			SnapshotEvery: dm.SnapshotEvery,
			SnapshotKeep:  dm.SnapshotKeep,
			HealInterval:  dm.HealInterval,
			Tracer:        r.Trace,
			Logger:        r.Logger,
			Progress:      s.ReportRecoveryProgress,
		})
		if err != nil {
			r.fail(fmt.Errorf("recovery failed: %w", err))
			return
		}
		dg = g
		s.SetDurable(g)
		sc = r.scrubber(s, scrub.Files{
			TargetName: "wal",
			List: func() ([]string, error) {
				var paths []string
				for _, seg := range g.Log().SealedSegments() {
					paths = append(paths, seg.Path)
				}
				return paths, nil
			},
			Verify: func(path string, bill func(int) error) error { return wal.VerifySegment(nil, path, bill) },
		}, scrub.Files{
			TargetName: "snapshot",
			List:       func() ([]string, error) { return g.SnapshotPaths(), nil },
			Verify: func(path string, bill func(int) error) error {
				_, err := stream.VerifySnapshotFile(nil, path, bill)
				return err
			},
		})
		ri := g.Recovery()
		r.Logger.Info("recovered", "wal_dir", dm.Dir, "fsync", policy.String(), "edges", g.NumEdges(),
			"replayed_records", ri.Replayed, "snapshot_lsn", ri.SnapshotLSN, "truncated_bytes", ri.TruncatedBytes,
			"elapsed", time.Since(start).Round(time.Millisecond))
	}()
	return s.Handler(), nil
}

// shard builds one shard of a partitioned cluster: a binary-RPC listener
// answers peer step batches (walker migration) while the HTTP handler
// answers /walk for the walks whose source vertex this shard owns. Every
// shard loads the same graph file, and the owner table is a pure function
// of it, so the shards agree on ownership with no coordination.
func (r *run) shard() (http.Handler, error) {
	s := r.Shard
	parts, hedge, faults, _ := s.parse()
	start := time.Now()
	g, app, err := r.load()
	if err != nil {
		return nil, err
	}
	node, err := shard.NewNode(g, app.Weight, shard.Config{ShardID: s.ID, Partitions: len(parts), Tracer: r.Trace})
	if err != nil {
		return nil, err
	}
	rpcAddr := s.RPCAddr
	if rpcAddr == "" {
		rpcAddr = parts[s.ID][s.Replica]
	}
	ln, err := net.Listen("tcp", rpcAddr)
	if err != nil {
		return nil, fmt.Errorf("shard rpc listen: %w", err)
	}
	var client wire.ClientConfig
	if faults != nil {
		// One plan over both directions of this process's RPC traffic:
		// outbound peer dials and inbound migration conns.
		plan := fault.New(s.ChaosSeed, faults...)
		client.Dialer = netchaos.Dial(plan)
		ln = netchaos.Listener(plan, ln)
		r.Logger.Warn("network chaos enabled", "spec", s.Chaos, "seed", s.ChaosSeed)
	}
	wireSrv := wire.NewServer(ln, node, r.Logger)
	peers := make(map[int][]string, len(parts)-1)
	for pid, replicas := range parts {
		if pid != s.ID {
			peers[pid] = replicas
		}
	}
	callers := shard.NewReplicaPeers(peers, shard.ReplicaPeersConfig{Client: client, Hedge: hedge})
	r.closers = append(r.closers, func() {
		_ = wireSrv.Close()
		callers.Close()
	})
	r.Logger.Info("shard ready", "shard", s.ID, "replica", s.Replica, "partitions", len(parts), "application", app.Name,
		"rpc_addr", ln.Addr().String(), "hedge", s.Hedge, "owned_edges", node.OwnedEdges(), "index_bytes", node.MemoryBytes(),
		"elapsed", time.Since(start).Round(time.Millisecond))
	return NewShard(node, callers, r.Config).Handler(), nil
}

// router builds the stateless front of a shard cluster.
func (r *run) router() (http.Handler, error) {
	rt, err := NewRouter(RouterConfig{Config: r.Config, Shards: strings.Split(r.Router.Shards, ",")})
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, rt.Close)
	return rt.Handler(), nil
}
