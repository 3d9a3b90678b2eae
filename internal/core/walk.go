package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/tea-graph/tea/internal/par"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/stats"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/trace"
	"github.com/tea-graph/tea/internal/xrand"
)

// betaTrialCap bounds the Dynamic_parameter rejection loop so a pathological
// parameter function cannot stall a walker; with the paper's p=0.5, q=2 the
// acceptance probability per trial is ≥ 1/4 and the cap is unreachable in
// practice. Hitting the cap force-accepts the last proposal.
const betaTrialCap = 4096

// ctxCheckMask amortizes the in-walk cancellation poll: the scalar step loop
// polls the run context's Done channel whenever steps&ctxCheckMask ==
// ctxCheckMask, so a single walk of config-overridable length (up to 2×10⁹
// steps) honors cancellation within at most ctxCheckMask+1 steps while the
// default 80-step walk pays no extra check at all.
const ctxCheckMask = 1023

// claimGrain is the number of walk ids a worker of either kernel claims per
// bump of the run's shared cursor: small enough that skewed walk lengths
// cannot idle a worker behind one overloaded static chunk, large enough that
// the atomic add is amortized over many walks.
const claimGrain = 16

// Kernel selects the walk execution strategy of a run.
type Kernel int

const (
	// KernelAuto picks the batched kernel when the engine's sampler
	// implements BatchSampler and the run is large enough to fill a
	// frontier, and the scalar kernel otherwise (small runs, external
	// samplers without a batch path).
	KernelAuto Kernel = iota
	// KernelScalar walks one walker at a time per worker — the original loop
	// and the batched kernel's correctness oracle.
	KernelScalar
	// KernelBatch steps a frontier of resident walkers per worker together,
	// in flat struct-of-arrays state (see batch.go). Requires a
	// BatchSampler; the engine falls back to KernelScalar when the sampler
	// has none.
	KernelBatch
)

// String names the kernel.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelScalar:
		return "scalar"
	case KernelBatch:
		return "batch"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// WalkConfig parameterizes a walk run: R walks of length L per start vertex,
// mirroring the paper's evaluation setup (R=1, L=80 for Table 4).
type WalkConfig struct {
	// WalksPerVertex is R; default 1.
	WalksPerVertex int
	// Length is the maximum number of steps L; default 80.
	Length int
	// StartTime is the arrival time of the virtual edge that drops the walker
	// on its start vertex; default MinTime (every out-edge is a candidate).
	//
	// A zero StartTime historically meant "unset" and was remapped to
	// MinTime, which made an actual start time of 0 inexpressible on graphs
	// with zero or negative timestamps. Set HasStartTime to use StartTime
	// verbatim, including zero.
	StartTime temporal.Time
	// HasStartTime marks StartTime as explicitly set: the value is used
	// verbatim, even when it is zero. When false, the legacy convention
	// applies (zero means MinTime, non-zero values are used as given).
	HasStartTime bool
	// StartVertices restricts the walk sources; nil walks from every vertex.
	StartVertices []temporal.Vertex
	// Threads for parallel walking; <1 means GOMAXPROCS.
	Threads int
	// Seed makes runs reproducible; walker i uses stream Split(i).
	Seed uint64
	// KeepPaths stores the sampled paths in the result (memory-heavy on big
	// runs; experiments leave it off, examples turn it on). It is the
	// default Sink, ignored when Sink is set.
	KeepPaths bool
	// Sink, if non-nil, receives every walk that ends — completed, dead-ended
	// or cancelled — with its path; paths are built only when a sink is set.
	// A non-nil error stops the run with that error. Walkers run in
	// parallel, so Sink must be safe for concurrent use; a one-thread scalar
	// run calls it in walk-id order.
	Sink func(walkID int, p Path) error
	// Kernel selects the execution strategy; the zero value (KernelAuto)
	// chooses automatically. Both kernels replay byte-identical seeded walks
	// — walker randomness is derived from (walk id, step) regardless of how
	// walkers are scheduled — so the choice affects only throughput.
	Kernel Kernel
	// Visitor, if non-nil, is invoked for every step as it is sampled —
	// walker-centric stream processing without storing paths. Walkers run in
	// parallel, so the callback MUST be safe for concurrent use; walkID
	// identifies the walk (source-major order), step counts from 0.
	Visitor func(walkID, step int, from, to temporal.Vertex, at temporal.Time)

	// restart is the per-step restart probability of a RunRestart run; 0
	// (every other run) draws nothing for it.
	restart float64
}

func (c *WalkConfig) normalize() {
	if c.WalksPerVertex <= 0 {
		c.WalksPerVertex = 1
	}
	if c.Length <= 0 {
		c.Length = 80
	}
	if !c.HasStartTime && c.StartTime == 0 {
		c.StartTime = temporal.MinTime
	}
}

// Path is one sampled temporal walk: the visited vertices and the timestamps
// of the traversed edges (len(Times) == len(Vertices)-1). The timestamps are
// strictly increasing — the defining property of a temporal path (§2.1).
type Path struct {
	Vertices []temporal.Vertex
	Times    []temporal.Time
}

// pathReserve caps the steps a kept path reserves room for up front: the
// default walk length (the paper's L = 80), so walks of up to that length
// never regrow. Most walks dead-end well before a large Length; reserving
// Length+1 entries made count=10000, length=10000 on a two-edge graph
// allocate over a gigabyte for a reply of a few hundred kilobytes. append
// grows the rare longer walk.
const pathReserve = 80

// NewPath starts a kept path at src with room for min(length, 80) steps.
func NewPath(src temporal.Vertex, length int) Path {
	n := min(length, pathReserve)
	vs := make([]temporal.Vertex, 1, n+1)
	vs[0] = src
	return Path{Vertices: vs, Times: make([]temporal.Time, 0, n)}
}

// Result aggregates a walk run.
type Result struct {
	Cost     stats.Cost
	Duration time.Duration
	// Lengths histograms the realized walk lengths (steps per walk) of every
	// walk that ran to a graph- or context-determined end; walks aborted by
	// a recovered panic are excluded (they are counted in
	// Cost.WalksPanicked instead).
	Lengths *stats.Histogram
	// Paths holds the sampled walks when WalkConfig.KeepPaths is set, in
	// deterministic (source-major) order.
	Paths []Path
}

// Run executes the configured walks in parallel and returns the merged
// result. It is safe to call Run concurrently on one engine. Run is a
// context.Background() shim over RunContext.
func (e *Engine) Run(cfg WalkConfig) (*Result, error) {
	return e.RunContext(context.Background(), cfg)
}

// RunContext executes the configured walks in parallel under ctx.
//
// Execution is kernel-dispatched (WalkConfig.Kernel). Workers of both
// kernels claim walk ids off a shared cursor, so skewed walk lengths cannot
// idle workers behind a static chunk split: the scalar kernel walks one
// walker at a time, the batched kernel (batch.go) steps a frontier of
// resident walkers together over flat struct-of-arrays state and refills a
// slot as soon as its walker ends. Walker randomness is derived from
// (walk id, step) via root.Split(walkID) in both, so the two kernels — and
// any worker schedule within them — replay byte-identical seeded walks.
//
// Cancellation is honored between walks, every ctxCheckMask+1 steps inside a
// walk, and (in the batched kernel) between frontier sweeps, so a deadline
// aborts the run promptly even when a single walk is billions of steps long;
// the partial Result accumulated so far is returned together with ctx.Err().
// Every started walk is classified exactly once in Result.Cost:
// WalksCompleted (reached Length, or restarted under RunRestart),
// WalksDeadEnded (ran out of temporal candidates), WalksCancelled (cut short
// by ctx), or WalksPanicked (aborted by a recovered panic in user code), so
// WalksStarted == Cost.WalksFinished() always holds. A panic in a user
// callback (Visitor, App.Parameter, a custom weight) is recovered, aborts the
// run, and is reported as an error naming the offending walk — the process
// and any concurrent runs on the same engine survive. Result.Cost is billed
// once, on every return, to the request cost ledger ctx carries (reqcost).
// It is safe to call RunContext concurrently on one engine.
func (e *Engine) RunContext(ctx context.Context, cfg WalkConfig) (*Result, error) {
	cfg.normalize()
	threads := par.Threads(cfg.Threads)
	sources := cfg.StartVertices
	if sources == nil {
		sources = make([]temporal.Vertex, e.g.NumVertices())
		for i := range sources {
			sources[i] = temporal.Vertex(i)
		}
	} else {
		for _, s := range sources {
			if int(s) >= e.g.NumVertices() {
				return nil, fmt.Errorf("core: start vertex %d outside graph with %d vertices", s, e.g.NumVertices())
			}
		}
	}
	mRunsStarted.Inc() // after the refusal, which publishes no outcome
	totalWalks := len(sources) * cfg.WalksPerVertex
	kern, bs := e.resolveKernel(cfg.Kernel, totalWalks, threads)

	// Tracing: nil runSpan (the overwhelmingly common case) keeps the run on
	// the exact pre-trace path — workers skip batch spans and the sampler is
	// called without a context. The context-threaded sampler route is only
	// resolved when this run is recorded or cost-accounted; in-memory
	// samplers don't implement ContextSampler, so their hot loop is
	// unchanged either way.
	ctx, runSpan := trace.Start(ctx, "engine.run")
	var ctxSampler ContextSampler
	if runSpan != nil {
		runSpan.SetStr("sampler", e.sampler.Name())
		runSpan.SetStr("kernel", kern.String())
		runSpan.SetInt("walks", int64(totalWalks))
		runSpan.SetInt("length", int64(cfg.Length))
		runSpan.SetInt("threads", int64(threads))
	}
	if runSpan != nil || reqcost.Active(ctx) {
		ctxSampler, _ = e.sampler.(ContextSampler)
	}

	root := xrand.New(cfg.Seed)
	result := &Result{Lengths: stats.NewHistogram(cfg.Length + 1)}
	if err := ctx.Err(); err != nil {
		publishRun(ctx, result.Cost, 0, err)
		runSpan.SetError(err)
		runSpan.End()
		return result, err
	}
	if cfg.KeepPaths && cfg.Sink == nil {
		paths := make([]Path, totalWalks)
		result.Paths = paths
		cfg.Sink = func(wi int, p Path) error {
			paths[wi] = p
			return nil
		}
	}

	// The run's own context lets a panicking walk abort sibling workers
	// promptly without cancelling the caller's context.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &walkRun{e: e, ctx: runCtx, done: runCtx.Done(), cfg: cfg, sources: sources, total: totalWalks, root: root, cs: ctxSampler, bs: bs}
	r.failed.cancel = cancel
	r.failed.sampler, _ = e.sampler.(stickyErrSampler)

	// A worker claims claimGrain walks at a time: more workers than claims
	// would find the cursor exhausted.
	workers := min(threads, (totalWalks+claimGrain-1)/claimGrain)
	start := time.Now()
	results := make([]walkerState, workers)
	for i := range results {
		// A lone worker observes straight into the result's histogram.
		results[i].lengths = result.Lengths
		if workers > 1 {
			results[i].lengths = stats.NewHistogram(cfg.Length + 1)
		}
	}
	r.fanOut(runSpan, results)
	for i := range results {
		result.Cost.Add(results[i].cost)
		if workers > 1 {
			result.Lengths.Merge(results[i].lengths)
		}
	}
	result.Duration = time.Since(start)
	err := r.failed.err
	if err == nil {
		err = ctx.Err()
	}
	publishRun(ctx, result.Cost, result.Duration, err)
	if runSpan != nil {
		runSpan.SetInt("steps", result.Cost.Steps)
		runSpan.SetInt("edges_evaluated", result.Cost.EdgesEvaluated)
		runSpan.SetInt("walks_dead_ended", result.Cost.WalksDeadEnded)
		runSpan.SetInt("walks_cancelled", result.Cost.WalksCancelled)
		if err != nil {
			runSpan.SetError(err)
			kind := trace.KindError
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				kind = trace.KindCancel
			}
			trace.EventCtx(ctx, kind, "engine.run aborted", trace.Str("cause", err.Error()))
		}
		runSpan.End()
	}
	if err != nil {
		return result, err
	}
	return result, nil
}

// RunRestart is RunContext for walks with restart, personalized PageRank's
// Monte Carlo walks (§5.2): before each step, a walker not at a dead end
// draws from its own stream and ends, counted in Cost.WalksCompleted, with
// probability alpha. alpha <= 0 draws nothing: the run is RunContext's.
func (e *Engine) RunRestart(ctx context.Context, cfg WalkConfig, alpha float64) (*Result, error) {
	cfg.restart = alpha
	return e.RunContext(ctx, cfg)
}

// resolveKernel maps the configured kernel to the one that will actually
// run. The batched kernel needs a BatchSampler; KernelAuto additionally
// requires the run to be large enough that a frontier forms — tiny runs
// (single API walks) stay on the scalar kernel, whose per-walk latency is
// lower than the batched kernel's at that size.
func (e *Engine) resolveKernel(k Kernel, totalWalks, threads int) (Kernel, BatchSampler) {
	if k == KernelScalar {
		return KernelScalar, nil
	}
	bs, ok := e.sampler.(BatchSampler)
	if !ok {
		return KernelScalar, nil
	}
	if k == KernelBatch {
		return KernelBatch, bs
	}
	if totalWalks >= batchAutoMinWalks && totalWalks >= 4*threads {
		return KernelBatch, bs
	}
	return KernelScalar, nil
}

// stickyErrSampler is implemented by samplers that can fail for a reason
// other than the walk (the disk-backed samplers: a dead device). Sample can
// only answer "no candidate", so a failed read looks like a temporal dead
// end; Err tells them apart, and once it is set it stays set.
type stickyErrSampler interface {
	Err() error
}

// runFailure keeps the first error that aborts a run and cancels the run's
// context so sibling workers stop promptly; err is read once every worker
// has returned. sampler is the run's sampler when it reports sticky errors,
// nil otherwise.
type runFailure struct {
	mu      sync.Mutex
	err     error
	cancel  context.CancelFunc
	sampler stickyErrSampler
}

// samplerFailed stops the run with the sampler's sticky error once it is set:
// a dead device is not a dead end, and every walk after it would be. Runs
// whose sampler has no Err method pay one inlined nil check.
func (f *runFailure) samplerFailed() bool {
	return f.sampler != nil && f.failOnSamplerErr()
}

func (f *runFailure) failOnSamplerErr() bool {
	err := f.sampler.Err()
	if err != nil {
		f.fail(err)
	}
	return err != nil
}

func (f *runFailure) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	f.cancel()
}

// walkRun is what a run's workers share: the normalized config, the
// sources, the root stream, the cursor they claim walk ids off and the
// run's first failure. bs is the batched kernel's sampler, nil when the run
// is on the scalar kernel; cs is the scalar kernel's context sampler, set
// only when the run is traced or cost-accounted.
type walkRun struct {
	e       *Engine
	ctx     context.Context // the run's context, cancelled by the first failure
	done    <-chan struct{} // ctx.Done(), which workers poll with isDone
	cfg     WalkConfig
	sources []temporal.Vertex
	total   int
	root    *xrand.Rand
	cs      ContextSampler
	bs      BatchSampler
	cursor  atomic.Int64
	failed  runFailure
}

// isDone reports whether done, a context's Done channel, is closed. Workers
// poll it in place of the context's Err, which takes the context's mutex on
// every call; a receive that finds the channel open takes none.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// claim is one worker's unspent share of the cursor: walk ids [lo, hi).
type claim struct{ lo, hi int }

// next returns the worker's next walk id, claiming claimGrain more off the
// shared cursor when its share is spent (dynamic distribution: a worker that
// drew short, dead-ending walks claims more instead of idling behind a
// static chunk); ok is false once every walk id has been claimed. A share
// spent at r.total means the cursor is too, so asking again costs no atomic
// add.
func (r *walkRun) next(c *claim) (wi int, ok bool) {
	if c.lo == c.hi {
		if c.hi == r.total {
			return 0, false
		}
		lo := int(r.cursor.Add(claimGrain)) - claimGrain
		if lo >= r.total {
			c.lo, c.hi = r.total, r.total
			return 0, false
		}
		c.lo, c.hi = lo, min(lo+claimGrain, r.total)
	}
	c.lo++
	return c.lo - 1, true
}

// fanOut runs one worker of the run's kernel per element of results: a lone
// worker (every API-sized request) on the caller's goroutine, more on a
// goroutine each.
func (r *walkRun) fanOut(runSpan *trace.Span, results []walkerState) {
	if len(results) == 1 {
		r.work(runSpan, 0, &results[0])
		return
	}
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(runSpan, w, &results[w])
		}()
	}
	wg.Wait()
}

// work runs one worker. A traced run wraps it in a walk_batch span carrying
// the worker's hot-layer aggregates: walks started, sampled steps, slots the
// sampler examined (trunk/level traffic for HPAT/PAT) and the
// Dynamic_parameter rejection counters.
func (r *walkRun) work(runSpan *trace.Span, worker int, st *walkerState) {
	bctx := r.ctx
	var bsp *trace.Span
	if runSpan != nil {
		bctx, bsp = trace.Start(r.ctx, "walk_batch")
		bsp.SetInt("worker", int64(worker))
	}
	if r.bs != nil {
		r.runBatch(bctx, st)
	} else {
		r.runScalar(bctx, st)
	}
	if bsp != nil {
		bsp.SetInt("walks", st.cost.WalksStarted)
		bsp.SetInt("steps", st.cost.Steps)
		bsp.SetInt("edges_evaluated", st.cost.EdgesEvaluated)
		bsp.SetInt("trials", st.cost.Trials)
		bsp.SetInt("rejected", st.cost.Rejected)
		bsp.End()
	}
}

// runScalar is one worker of the scalar kernel: it walks each walk id it
// claims to completion, checking the sampler's sticky error after each walk
// before the walk reaches the sink.
func (r *walkRun) runScalar(bctx context.Context, st *walkerState) {
	cfg := &r.cfg
	var cl claim
	for !isDone(r.done) {
		wi, ok := r.next(&cl)
		if !ok {
			break
		}
		src := r.sources[wi/cfg.WalksPerVertex]
		r.root.SplitTo(uint64(wi), &st.rng)
		p, err := r.e.walkOneSafe(bctx, r.done, r.cs, wi, src, *cfg, &st.rng, st)
		if err == nil && r.failed.samplerFailed() {
			break
		}
		if err == nil && cfg.Sink != nil {
			err = cfg.Sink(wi, p)
		}
		if err != nil {
			r.failed.fail(err)
			break
		}
	}
}

// walkOneSafe runs one walk, converting a panic in user code into an error
// that names the walk instead of crashing the process. The panicked walk is
// accounted explicitly (Cost.WalksPanicked) so the started ==
// completed + dead-ended + cancelled + panicked invariant survives the
// abort; its length is not observed in the histogram because the walk has no
// graph-determined end.
func (e *Engine) walkOneSafe(ctx context.Context, done <-chan struct{}, cs ContextSampler, walkID int, src temporal.Vertex, cfg WalkConfig, r *xrand.Rand, st *walkerState) (p Path, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			st.cost.WalksPanicked++
			err = fmt.Errorf("core: walk %d from vertex %d panicked: %v", walkID, src, rec)
		}
	}()
	return e.walkOne(ctx, done, cs, walkID, src, cfg, r, st), nil
}

// walkerState is one worker's private accumulator. Workers update their
// element of a shared []walkerState on every step, so the fields must never
// share a 64-byte cache line with a sibling's fields. The leading guard keeps
// the hot cost counters clear of the previous element (the old layout padded
// only the tail, and by less than a line, so the leading cost field still
// false-shared), and the trailing pad rounds the struct to a multiple of the
// line size; together the gap between any two elements' field regions
// exceeds a line regardless of the slice's base alignment.
type walkerState struct {
	_       [64]byte // guard before the hot counters
	cost    stats.Cost
	lengths *stats.Histogram
	// rng is the scalar kernel's walker stream, reseeded for every walk.
	rng xrand.Rand
	_   [64 - (unsafe.Sizeof(stats.Cost{})+8+unsafe.Sizeof(xrand.Rand{}))%64]byte // round fields up to a line
}

// finishWalk classifies one terminated walk: completion when it reached the
// configured length or restarted (complete), cancellation when it ended
// early while the run's context was being torn down (done, its Done channel,
// is closed: a cancelled sampler returning ok=false is indistinguishable
// from a temporal dead end at the sampler contract, so the context is the
// tiebreaker), and a genuine temporal dead end otherwise.
func (st *walkerState) finishWalk(done <-chan struct{}, steps int, complete bool) {
	st.lengths.Observe(steps)
	switch {
	case complete:
		st.cost.WalksCompleted++
	case isDone(done):
		st.cost.WalksCancelled++
	default:
		st.cost.WalksDeadEnded++
	}
}

// Step takes one step of Algorithm 2 for a walker at u with k temporal
// candidates: sample one of the k candidates, then — when the app has a
// Dynamic_parameter and the walker has a previous vertex prev — apply the
// rejection test (lines 18–22), resampling up to betaTrialCap times and
// force-accepting the last proposal when the cap is hit (a documented
// deviation, unreachable with the paper's parameters). It returns the taken
// edge's index in u's adjacency, its destination and timestamp; ok is false
// when the candidate prefix carries no weight (a dead end). The draws come
// from r in a fixed order, so any executor that hands a walker's stream to
// Step replays the engine's own walks. Sampler evaluations and β trials and
// rejections are added to c.
func (e *Engine) Step(u temporal.Vertex, k int, prev temporal.Vertex, hasPrev bool, r *xrand.Rand, c *stats.Cost) (edgeIdx int, dst temporal.Vertex, at temporal.Time, ok bool) {
	return e.step(nil, nil, u, k, prev, hasPrev, r, c)
}

// step is Step with the run's context sampler: cs is non-nil only when the
// run is traced or cost-accounted and the sampler supports context
// threading; otherwise the sampler is called without a context.
func (e *Engine) step(ctx context.Context, cs ContextSampler, u temporal.Vertex, k int, prev temporal.Vertex, hasPrev bool, r *xrand.Rand, c *stats.Cost) (edgeIdx int, dst temporal.Vertex, at temporal.Time, ok bool) {
	for trial := 0; trial < betaTrialCap; trial++ {
		var ev int64
		if cs != nil {
			edgeIdx, ev, ok = cs.SampleCtx(ctx, u, k, r)
		} else {
			edgeIdx, ev, ok = e.sampler.Sample(u, k, r)
		}
		c.EdgesEvaluated += ev
		if !ok {
			return
		}
		dst, at = e.g.EdgeAt(u, edgeIdx)
		if !hasPrev || e.accept(prev, dst, r, c) {
			return
		}
	}
	return // trial cap reached: force-accept the last proposal
}

// accept is the Dynamic_parameter rejection test for a walker that came from
// prev and is offered dst: one β draw from r against the app's envelope,
// counted in c. Apps without a parameter accept every proposal and draw
// nothing.
func (e *Engine) accept(prev, dst temporal.Vertex, r *xrand.Rand, c *stats.Cost) bool {
	if e.app.Parameter == nil {
		return true
	}
	c.Trials++
	if r.Range(e.app.MaxParameter) <= e.app.Parameter(e.g, prev, dst) {
		return true
	}
	c.Rejected++
	return false
}

// walkOne runs a single temporal walk from src, implementing the main loop of
// Algorithm 2: one step at a time until the walk reaches its length or a
// dead end. cs is non-nil only when the run is traced and the sampler
// supports context threading; on the untraced path the sampler is called
// exactly as before. done is ctx's Done channel.
func (e *Engine) walkOne(ctx context.Context, done <-chan struct{}, cs ContextSampler, walkID int, src temporal.Vertex, cfg WalkConfig, r *xrand.Rand, st *walkerState) Path {
	var p Path
	if cfg.Sink != nil {
		p = NewPath(src, cfg.Length)
	}
	st.cost.WalksStarted++

	u := src
	k := e.g.CandidateCount(u, cfg.StartTime)
	var prev temporal.Vertex
	hasPrev := false
	steps := 0
	restarted := false
	for steps < cfg.Length {
		if k == 0 {
			break
		}
		if cfg.restart > 0 && r.Float64() < cfg.restart {
			restarted = true
			break
		}
		if steps&ctxCheckMask == ctxCheckMask && isDone(done) {
			break // long walk: honor cancellation mid-walk, keep the partial walk
		}
		edgeIdx, dst, at, ok := e.step(ctx, cs, u, k, prev, hasPrev, r, &st.cost)
		if !ok {
			break // zero-weight candidate prefix: dead end
		}
		st.cost.Steps++
		if cfg.Sink != nil {
			p.Vertices = append(p.Vertices, dst)
			p.Times = append(p.Times, at)
		}
		if cfg.Visitor != nil {
			cfg.Visitor(walkID, steps, u, dst, at)
		}
		// O(1) candidate lookup for the next step (§4.2) when the
		// precomputed table exists, binary search otherwise.
		k = e.g.CandidateCountAfterEdge(u, edgeIdx)
		prev, hasPrev = u, true
		u = dst
		steps++
	}
	st.finishWalk(done, steps, restarted || steps == cfg.Length)
	return p
}
