// Package cli is the command line of teaserve, tearouter and teawalk: one
// flag table per command, each row binding a flag to a field of one section
// of what the command runs, and the parse-validate-run loop the serving
// commands share. The mains in cmd/ are one call into it, and the docs guard
// in cmd/teabench drives the same parsing over every documented command.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/server"
)

// row binds one flag to a field. Setting the flag runs attach, which adds
// the field's section to the deployment, so a flag of a mode that was not
// chosen shows up as a second section and Validate refuses it. A nil attach
// is the top level.
type row struct {
	name   string
	field  any // *string, *int, *int64, *uint64, *float64, *bool or *time.Duration
	attach func()
	usage  string
}

// register adds rows to fs, each defaulting to its field's current value,
// and returns what attaches the sections of the flags that were set.
func register(fs *flag.FlagSet, rows []row) func() {
	attach := map[string]func(){}
	for _, r := range rows {
		attach[r.name] = r.attach
		switch p := r.field.(type) {
		case *string:
			fs.StringVar(p, r.name, *p, r.usage)
		case *int:
			fs.IntVar(p, r.name, *p, r.usage)
		case *int64:
			fs.Int64Var(p, r.name, *p, r.usage)
		case *uint64:
			fs.Uint64Var(p, r.name, *p, r.usage)
		case *float64:
			fs.Float64Var(p, r.name, *p, r.usage)
		case *bool:
			fs.BoolVar(p, r.name, *p, r.usage)
		case *time.Duration:
			fs.DurationVar(p, r.name, *p, r.usage)
		}
	}
	return func() {
		fs.Visit(func(f *flag.Flag) {
			if a := attach[f.Name]; a != nil {
				a()
			}
		})
	}
}

// set returns what attaches section v as *dst.
func set[T any](dst **T, v *T) func() { return func() { *dst = v } }

// operational are the rows teaserve and tearouter share.
func operational(d *server.Deployment) []row {
	d.Drain, d.RequestTimeout, d.Tracing.FlightSpans = 15*time.Second, 30*time.Second, 1024
	return []row{
		{"addr", &d.Addr, nil, "listen address"},
		{"request-timeout", &d.RequestTimeout, nil, "per-request deadline, 0 disables"},
		{"max-inflight", &d.MaxInFlight, nil, "max concurrently executing requests, 0 unlimited"},
		{"drain", &d.Drain, nil, "graceful-shutdown drain window"},
		{"trace-fraction", &d.Tracing.SampleFraction, nil, "fraction of requests head-sampled into full traces (0 disables, 1 traces every request)"},
		{"flight-spans", &d.Tracing.FlightSpans, nil, "flight recorder capacity (recent spans and error/cancel/retry events), 0 disables"},
		{"slow-request", &d.SlowRequestThreshold, nil, "warn-log requests slower than this with their cost breakdown, 0 disables"},
		{"log-json", &d.LogJSON, nil, "emit structured logs as JSON instead of text"},
	}
}

// application are the rows teaserve and teawalk share.
func application(s *core.AppSpec) []row {
	*s = core.AppSpec{Algo: "exp", P: 0.5, Q: 2}
	return []row{
		{"algo", &s.Algo, nil, "walk algorithm: uniform|linear|rank|exp|node2vec"},
		{"lambda", &s.Lambda, nil, "exponential decay (0 = auto: 50/timespan, 0.01 in durable mode)"},
		{"p", &s.P, nil, "node2vec return parameter"},
		{"q", &s.Q, nil, "node2vec in-out parameter"},
	}
}

// Teaserve registers teaserve's flag table on fs and returns what assembles
// and validates the deployment once fs is parsed: engine mode unless a flag
// picked another.
func Teaserve(fs *flag.FlagSet) func() (server.Deployment, error) {
	d := server.Deployment{Addr: ":8080", Config: server.Config{MaxInFlight: 64}}
	var (
		eng server.EngineMode
		ooc = server.DefaultOOC
		dur = server.DurableMode{Fsync: "always", FsyncInterval: 100 * time.Millisecond, SnapshotEvery: 10000}
		sh  = server.ShardMode{ID: -1, Hedge: "off", ChaosSeed: 1}
		scr = server.DefaultScrub
	)
	engine, oocs, durable, shard, scrubs := set(&d.Engine, &eng), set(&d.OOC, &ooc), set(&d.Durable, &dur), set(&d.Shard, &sh), set(&d.Scrub, &scr)
	attach := register(fs, append(append(operational(&d), application(&d.App)...), []row{
		{"input", &d.Input, nil, "edge list path (.txt or binary .teag)"},
		{"max-length", &d.MaxWalkLength, nil, "cap on the /walk length parameter, 0 = default (10000)"},
		{"pprof", &d.Pprof, nil, "expose net/http/pprof under /debug/pprof/"},
		{"instance", &d.Instance, nil, "instance name stamped on metrics, spans, and logs (default: shard-<id> in shard mode, unlabeled otherwise)"},

		{"ooc", &eng.OutOfCore, engine, "serve out-of-core: PAT trunks on disk, trunk prefix sums in memory"},
		{"ooc-store", &ooc.Store, oocs, "block store path for -ooc (default: temp file removed on exit)"},
		{"ooc-cache-bytes", &ooc.CacheBytes, oocs, "block cache capacity over -ooc trunk reads, 0 disables"},
		{"ooc-cache-policy", &ooc.CachePolicy, oocs, "block cache eviction policy: lru|clock"},

		{"wal-dir", &dur.Dir, durable, "durable-ingest mode: WAL + snapshot directory (mutually exclusive with -input)"},
		{"fsync", &dur.Fsync, durable, "WAL durability policy: always|interval|never"},
		{"fsync-interval", &dur.FsyncInterval, durable, "flush cadence for -fsync interval"},
		{"snapshot-every", &dur.SnapshotEvery, durable, "snapshot and trim the WAL every N mutations, 0 disables"},
		{"snapshot-keep", &dur.SnapshotKeep, durable, "snapshot generations to retain, 0 = default (2)"},
		{"wal-segment-bytes", &dur.SegmentBytes, durable, "WAL segment rotation threshold, 0 = default"},
		{"heal-interval", &dur.HealInterval, durable, "degraded-mode device probe cadence, 0 = default (2s), negative disables"},

		{"scrub-interval", &scr.Interval, scrubs, "background integrity scrub cadence with -wal-dir or -ooc, 0 disables"},
		{"scrub-rate-mbps", &scr.RateMBps, scrubs, "scrub read bandwidth budget in MB/s, negative = unlimited"},

		{"shard-id", &sh.ID, shard, "shard mode: this process's shard id (requires -shard-peers; see cmd/tearouter)"},
		{"shard-peers", &sh.Peers, shard, "comma-separated RPC host:port of every shard in shard-id order; '|' separates a partition's replicas; the comma count is the partition count"},
		{"shard-replica", &sh.Replica, shard, "which replica of its partition this process is (index into the '|' list of its -shard-peers entry)"},
		{"shard-rpc-addr", &sh.RPCAddr, shard, "walker-migration RPC listen address (default: this shard's -shard-peers entry)"},
		{"shard-hedge", &sh.Hedge, shard, "hedged step-RPCs against sibling replicas: off|auto|<duration> (auto = primary's observed p99)"},
		{"chaos", &sh.Chaos, shard, "inject network faults on peer RPC conns, e.g. 'drop:peer=h1:9000,after=3;delay:delay=50ms' (testing only)"},
		{"chaos-seed", &sh.ChaosSeed, shard, "seed for randomized -chaos faults (byte flips)"},
	}...))
	return func() (server.Deployment, error) {
		attach()
		if d.Durable == nil && d.Shard == nil {
			engine()
		}
		return d, d.Validate()
	}
}

// Tearouter registers tearouter's flag table on fs.
func Tearouter(fs *flag.FlagSet) func() (server.Deployment, error) {
	d := server.Deployment{Addr: ":8090", Config: server.Config{MaxInFlight: 256, RetryAfter: time.Second}, Router: &server.RouterMode{}}
	register(fs, append(operational(&d),
		row{"shards", &d.Router.Shards, nil, "comma-separated shard base URLs in shard-id order (required)"},
		row{"retry-after", &d.RetryAfter, nil, "Retry-After hint attached to 503 responses"}))
	return func() (server.Deployment, error) { return d, d.Validate() }
}

// Parse registers a command's flag table on a new flag set, parses args and
// returns what the table assembles from them. Every error is reported on
// stderr: a bad flag (by the flag package), a stray argument, and whatever
// the table refuses.
func Parse[T any](name string, args []string, stderr io.Writer, table func(*flag.FlagSet) func() (T, error)) (T, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	assemble := table(fs)
	if err := fs.Parse(args); err != nil {
		var zero T
		return zero, err // the flag package has reported it
	}
	v, err := assemble()
	if fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
	}
	return v, err
}

// Main is a serving command: Parse, then Run until SIGINT or SIGTERM; a
// second signal kills the process. It returns the exit code: 2 for a flag
// error, found before anything is loaded or bound; 1 when Run fails; 0
// otherwise.
func Main(name string, args []string, stderr io.Writer, table func(*flag.FlagSet) func() (server.Deployment, error)) int {
	d, err := Parse(name, args, stderr, table)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // restore default signal behavior: a second signal kills hard
	if err := d.Run(ctx); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}
	return 0
}

// Walk is one teawalk run: Config is the walk configuration its flags fill,
// From the one start vertex (-1: every vertex).
type Walk struct {
	Input, Out string
	App        core.AppSpec
	Method     core.Method
	Config     core.WalkConfig
	From       int
	Paths      bool
}

// Teawalk registers teawalk's flag table on fs and returns what refuses a
// bad -algo, -p, -q or -method before anything is loaded.
func Teawalk(fs *flag.FlagSet) func() (*Walk, error) {
	w := &Walk{Config: core.WalkConfig{Length: 80, WalksPerVertex: 1, Seed: 1}, From: -1}
	method := "hpat"
	register(fs, append(application(&w.App), []row{
		{"input", &w.Input, nil, "edge list path (.txt or binary .teag)"},
		{"length", &w.Config.Length, nil, "walk length L"},
		{"walks", &w.Config.WalksPerVertex, nil, "walks per vertex R"},
		{"seed", &w.Config.Seed, nil, "random seed"},
		{"threads", &w.Config.Threads, nil, "worker threads (0 = GOMAXPROCS)"},
		{"method", &method, nil, "sampler: hpat|pat|its"},
		{"paths", &w.Paths, nil, "print each sampled path"},
		{"from", &w.From, nil, "walk only from this vertex (-1 = all)"},
		{"o", &w.Out, nil, "write the walk corpus to this path (.txt or binary .teaw)"},
	}...))
	return func() (*Walk, error) {
		var known bool
		w.Method, known = map[string]core.Method{"hpat": core.MethodHPAT, "pat": core.MethodPAT, "its": core.MethodITS}[method]
		_, err := w.App.App(nil)
		switch {
		case err == nil && !known:
			err = fmt.Errorf("-method %q: want hpat, pat or its", method)
		case err == nil && w.Input == "":
			err = errors.New("-input: required")
		}
		return w, err
	}
}
