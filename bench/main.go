// Command bench is the repository's benchmark: four workloads over one
// generated temporal graph, measured from outside through the public
// functions of each layer. See README.md in this directory.
//
//	bench                         all four workloads, one JSON document on stdout
//	bench -trace 1 -out t.json    the traced, layer-by-layer run; spans go to t.json
//	bench -workload corpus        one workload in this process (the driver's form)
//	bench compare A.json B.json   verdict per workload and end-to-end metric
//	bench aa -runs 3              two alternating sets of runs of this build, compared
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"github.com/tea-graph/tea/bench/measure"
	"github.com/tea-graph/tea/bench/workload"
)

// workloadInfo names a workload, says why it exists, and runs it.
type workloadInfo struct {
	name string
	why  string
	run  func(ctx context.Context, e *env, rep *Report) error
	peel func(ctx context.Context, e *env, rep *Report) error
}

var workloads = []workloadInfo{
	{"corpus", "offline 80-step walks through core+hpat with no HTTP or wire: where a kernel or sampler change must show, with node2vec and out-of-core phases to catch a gain bought at their expense", runCorpus, peelCorpus},
	{"serve-single", "closed-loop GET /walk against one server on loopback: request parsing, JSON encoding and net/http dominate and the sampler is minor, so an encode change shows here and a kernel change barely", runServeSingle, peelServeSingle},
	{"serve-cluster", "the same requests through a router and 3 shards: one RPC round per step, so coordinator barriers and wire framing dominate; where multi-step-per-RPC work shows", runServeCluster, peelServeCluster},
	{"ingest-walk", "durable POST /edges beside GET /walk on one stream graph: the WAL and append path against the read path under one lock, plus restart time from the log", runIngestWalk, peelIngestWalk},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// Scales of the three kinds of run, as shares of the full size.
const (
	fullScale  = 1.0
	traceScale = 0.2
	smokeScale = 0.01
)

// options are the command line of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
	// tamper corrupts /walk responses before they are checked; only tests
	// set it, to prove a wrong response fails the run.
	tamper func([]byte) []byte
}

// env is what a workload runs in: its inputs, its checker and its scratch.
type env struct {
	seed      uint64
	scale     float64
	budget    time.Duration
	minRounds int
	conc      int // N: threads offline, connections online
	stream    *workload.Stream
	check     *checker
	rec       *measure.Recorder // nil unless this is the traced run
	dir       string            // work directory, removed on exit
	tamper    func([]byte) []byte
}

// scaled shrinks a full-size count to this run's scale.
func (e *env) scaled(n int) int { return max(8, int(float64(n)*e.scale)) }

// setups is how many times a set-up is repeated for its median.
func (e *env) setups(n int) int {
	if e.scale < traceScale {
		return 1
	}
	return n
}

func p50(xs []float64) float64 { return measure.Quantile(xs, 0.5) }

// p99 is the 99th percentile of xs. It needs 20 samples beyond it; a run too
// small to have them (a smoke run) reports the 90th instead.
func p99(xs []float64) float64 {
	if v, ok := measure.TailPercentile(xs, 99); ok {
		return v
	}
	return measure.Quantile(xs, 0.9)
}

// latency reports the pooled per-request latencies of ph, in milliseconds,
// as the walk latency metrics.
func (e *env) latency(rep *Report, lat []float64, ph *phase) {
	rep.value("walk_latency_p50_ms", p50(lat), ph)
	rep.value("walk_latency_p99_ms", p99(lat), ph)
}

func concurrency() int { return min(runtime.NumCPU(), 4) }

func newEnv(o options, dir string) *env {
	e := &env{
		seed:      o.seed,
		scale:     fullScale,
		budget:    time.Duration(o.seconds * float64(time.Second)),
		minRounds: minRounds,
		conc:      concurrency(),
		dir:       dir,
		tamper:    o.tamper,
	}
	if o.trace {
		e.scale, e.budget = traceScale, 0
		e.rec = measure.NewRecorder()
	}
	if o.smoke {
		e.scale, e.budget, e.minRounds = smokeScale, 0, 3
	}
	e.stream = workload.Generate(int(workload.DefaultVertices*e.scale), o.seed)
	e.check = newChecker(e.stream)
	return e
}

func (e *env) describe(o options) Env {
	return Env{
		NProc:       runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Concurrency: e.conc,
		GoVersion:   runtime.Version(),
		Seed:        o.seed,
		Seconds:     o.seconds,
		Scale:       e.scale,
		V:           e.stream.V,
		E:           len(e.stream.Edges),
		Fsync:       fsyncPolicy,
	}
}

// runWorkload runs one workload (or its traced peel) in this process.
func runWorkload(ctx context.Context, o options, dir string) (*Report, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	e := newEnv(o, dir)
	rep := &Report{Workload: w.name, Why: w.why, Trace: o.trace, Env: e.describe(o)}
	run := w.run
	if o.trace {
		run = w.peel
	}
	if err := run(ctx, e, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rss, err := measure.PeakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.value("peak_rss_mb", rss, nil)
	if o.trace {
		// The driver's end-to-end figures are never taken from the traced
		// run: it is a fifth of the size and carries spans.
		rep.Metrics = slices.DeleteFunc(rep.Metrics, func(m Metric) bool { return lookup(m.Name).Universal })
	}
	rep.finish(e.check)
	if o.trace && o.out != "" {
		if err := writeTrace(e.rec, o.out); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func writeTrace(rec *measure.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}

// workRoot is where work directories are made: inside the directory the
// benchmark was started from, never in the system temp directory, so a run
// reads and writes only under its own checkout.
const workRoot = ".bench_build"

func makeWorkDir() (string, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(workRoot, "work-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	// SIGINT/SIGTERM cancel the context; every path below then unwinds
	// through its defers, which is what removes the work directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:])
	case len(args) > 0 && args[0] == "aa":
		err = aaMain(ctx, args[1:])
	default:
		err = benchMain(ctx, args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

var errIncorrect = errors.New("a correctness check or an operation failed (see errors in the output)")

func benchMain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var trace int
	var report string
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process, and end with the driver's one-line result")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated graph and request lists")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload")
	fs.IntVar(&trace, "trace", 0, "1 = the traced layer-by-layer run at one fifth size instead of the end-to-end run")
	fs.BoolVar(&o.smoke, "smoke", false, "1/100-size pass of everything, for tests")
	fs.StringVar(&o.out, "out", "", "with -trace 1: write the spans here as Chrome trace_event JSON")
	fs.StringVar(&report, "report", "", "with -workload: also write the workload's full report here (used by the parent run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o.trace = trace != 0

	if o.workload == "" {
		doc, err := runAll(ctx, o)
		if err != nil {
			return err
		}
		if err := writeJSON(os.Stdout, doc); err != nil {
			return err
		}
		for _, r := range doc.Workloads {
			if !r.Correct {
				return errIncorrect
			}
		}
		return nil
	}

	dir, err := makeWorkDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rep, err := runWorkload(ctx, o, dir)
	if err != nil {
		return err
	}
	if o.trace && report == "" {
		// The driver's per-layer list spans every workload, so its traced
		// run peels the other three too and reports all layers at once.
		for _, w := range workloads {
			if w.name == o.workload {
				continue
			}
			other := o
			other.workload, other.out = w.name, ""
			r, err := runWorkload(ctx, other, dir)
			if err != nil {
				return err
			}
			rep.absorb(r)
		}
	}
	if report != "" {
		// A child of runAll: the parent reads the report and judges it.
		f, err := os.Create(report)
		if err != nil {
			return err
		}
		if err := writeJSON(f, rep); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := writeJSON(os.Stdout, Document{Schema: schema, Workloads: []Report{*rep}}); err != nil {
		return err
	}
	if !rep.Correct {
		return errIncorrect
	}
	return printDriverLine(os.Stdout, rep)
}

// driverResult is the last line of standard output in -workload mode: the
// shape the benchmark driver reads.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMetrics lists the metrics the driver's line carries: the universal
// end-to-end metrics of an end-to-end run, everything else of a traced run.
func driverMetrics(trace bool) []def {
	var out []def
	for _, d := range defs {
		if d.Universal != trace {
			out = append(out, d)
		}
	}
	return out
}

func printDriverLine(w io.Writer, rep *Report) error {
	res := driverResult{Correct: rep.Correct, Metrics: map[string]driverMetric{}}
	res.Attempted, res.Failed = rep.totals()
	for _, d := range driverMetrics(rep.Trace) {
		m, ok := rep.get(d.Name)
		if !ok {
			return fmt.Errorf("workload %s did not report %s", rep.Workload, d.Name)
		}
		res.Metrics[d.Name] = driverMetric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload in a child process of its own, so that peak RSS
// and garbage-collector state belong to one workload and do not depend on
// the order, and gathers the children's reports into one document.
func runAll(ctx context.Context, o options) (*Document, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := makeWorkDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	doc := &Document{Schema: schema}
	for _, w := range workloads {
		report := filepath.Join(dir, w.name+".json")
		args := []string{
			"-workload", w.name, "-report", report,
			"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		}
		if o.trace {
			args = append(args, "-trace", "1")
			if o.out != "" {
				args = append(args, "-out", tracePath(o.out, w.name))
			}
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
		cmd.WaitDelay = 10 * time.Second
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		data, err := os.ReadFile(report)
		if err != nil {
			return nil, err
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("workload %s report: %w", w.name, err)
		}
		doc.Workloads = append(doc.Workloads, rep)
	}
	return doc, nil
}

// tracePath gives each workload's child its own trace file next to out.
func tracePath(out, workload string) string {
	ext := filepath.Ext(out)
	return out[:len(out)-len(ext)] + "." + workload + ext
}
