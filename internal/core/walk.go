package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
// checks ctx.Err() whenever steps&ctxCheckMask == ctxCheckMask, so a single
// walk of config-overridable length (up to 2×10⁹ steps) honors cancellation
// within at most ctxCheckMask+1 steps while the default 80-step walk pays no
// extra check at all.
const ctxCheckMask = 1023

// scalarGrain is the number of walks a scalar-kernel worker claims per bump
// of the shared cursor: small enough that skewed walk lengths cannot idle a
// worker behind one overloaded static chunk, large enough that the atomic
// add is amortized over many walks.
const scalarGrain = 16

// Kernel selects the walk execution strategy of a run.
type Kernel int

const (
	// KernelAuto picks the batched step-synchronous kernel when the engine's
	// sampler implements BatchSampler and the run is large enough to fill a
	// frontier, and the scalar kernel otherwise (small runs, external
	// samplers without a batch path).
	KernelAuto Kernel = iota
	// KernelScalar walks one walker at a time per worker — the original loop
	// and the batched kernel's correctness oracle.
	KernelScalar
	// KernelBatch executes walks as synchronized batched steps over flat
	// struct-of-arrays state (see batch.go). Requires a BatchSampler; the
	// engine falls back to KernelScalar when the sampler has none.
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
	// BatchWave bounds how many walks the batched kernel keeps resident in
	// its flat state at once; <=0 selects DefaultBatchWave. Ignored by the
	// scalar kernel.
	BatchWave int
	// Visitor, if non-nil, is invoked for every step as it is sampled —
	// walker-centric stream processing without storing paths. Walkers run in
	// parallel, so the callback MUST be safe for concurrent use; walkID
	// identifies the walk (source-major order), step counts from 0.
	Visitor func(walkID, step int, from, to temporal.Vertex, at temporal.Time)
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
	if c.BatchWave <= 0 {
		c.BatchWave = DefaultBatchWave
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
// Execution is kernel-dispatched (WalkConfig.Kernel): the scalar kernel
// walks one walker at a time per worker, claiming walks off a shared cursor
// so skewed walk lengths cannot idle workers behind a static chunk split;
// the batched kernel (batch.go) advances the whole frontier one synchronized
// step at a time over flat struct-of-arrays state. Walker randomness is
// derived from (walk id, step) via root.Split(walkID) in both, so the two
// kernels — and any worker/wave schedule within them — replay byte-identical
// seeded walks.
//
// Cancellation is honored between walks, every ctxCheckMask+1 steps inside a
// walk, and (in the batched kernel) between frontier chunks, so a deadline
// aborts the run promptly even when a single walk is billions of steps long;
// the partial Result accumulated so far is returned together with ctx.Err().
// Every started walk is classified exactly once in Result.Cost:
// WalksCompleted (reached Length), WalksDeadEnded (ran out of temporal
// candidates), WalksCancelled (cut short by ctx), or WalksPanicked (aborted
// by a recovered panic in user code), so WalksStarted ==
// Cost.WalksFinished() always holds. A panic in a user callback (Visitor,
// App.Parameter, a custom weight) is recovered, aborts the run, and is
// reported as an error naming the offending walk — the process and any
// concurrent runs on the same engine survive. It is safe to call RunContext
// concurrently on one engine.
func (e *Engine) RunContext(ctx context.Context, cfg WalkConfig) (*Result, error) {
	cfg.normalize()
	mRunsStarted.Inc()
	threads := cfg.Threads
	if threads < 1 {
		threads = defaultThreads()
	}
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
		publishRun(result.Cost, 0, err)
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

	// runCtx lets a panicking walk abort sibling workers promptly without
	// cancelling the caller's context.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	failed := &runFailure{cancel: cancel}
	failed.sampler, _ = e.sampler.(stickyErrSampler)

	workers := threads
	if kern == KernelScalar {
		// A scalar worker claims scalarGrain walks at a time: more workers
		// than claims would find the cursor exhausted.
		workers = min(threads, (totalWalks+scalarGrain-1)/scalarGrain)
	}
	start := time.Now()
	results := make([]walkerState, workers)
	for i := range results {
		// A lone worker observes straight into the result's histogram.
		results[i].lengths = result.Lengths
		if workers > 1 {
			results[i].lengths = stats.NewHistogram(cfg.Length + 1)
		}
	}
	if kern == KernelBatch {
		e.runBatch(runCtx, runSpan, cfg, bs, sources, totalWalks, threads, root, results, failed)
	} else {
		e.runScalar(runCtx, runSpan, cfg, ctxSampler, sources, totalWalks, root, results, failed)
	}
	for i := range results {
		result.Cost.Add(results[i].cost)
		if workers > 1 {
			result.Lengths.Merge(results[i].lengths)
		}
	}
	result.Duration = time.Since(start)
	err := failed.first()
	if err == nil {
		err = ctx.Err()
	}
	publishRun(result.Cost, result.Duration, err)
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

// resolveKernel maps the configured kernel to the one that will actually
// run. The batched kernel needs a BatchSampler; KernelAuto additionally
// requires the run to be large enough that a frontier forms — tiny runs
// (single API walks) stay on the scalar kernel, whose per-walk latency is
// lower than a step-synchronized wave.
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
// context so sibling workers stop promptly. sampler is the run's sampler when
// it reports sticky errors, nil otherwise.
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

func (f *runFailure) first() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// runScalar is the scalar kernel: one worker per element of results claims
// scalarGrain-sized runs of walk ids off a shared cursor (dynamic
// distribution — a worker that drew short, dead-ending walks immediately
// claims more instead of idling behind a static chunk) and walks each one to
// completion. A single worker (every API-sized request) walks on the
// caller's goroutine. After each walk the sampler's sticky error is checked
// before the walk reaches the sink.
func (e *Engine) runScalar(runCtx context.Context, runSpan *trace.Span, cfg WalkConfig, ctxSampler ContextSampler, sources []temporal.Vertex, totalWalks int, root *xrand.Rand, results []walkerState, failed *runFailure) {
	var cursor atomic.Int64
	work := func(worker int) {
		bctx := runCtx
		var bsp *trace.Span
		if runSpan != nil {
			bctx, bsp = trace.Start(runCtx, "walk_batch")
			bsp.SetInt("worker", int64(worker))
		}
		st := &results[worker]
		walked := 0
	claim:
		for {
			lo := int(cursor.Add(scalarGrain)) - scalarGrain
			if lo >= totalWalks {
				break
			}
			hi := lo + scalarGrain
			if hi > totalWalks {
				hi = totalWalks
			}
			for wi := lo; wi < hi; wi++ {
				if runCtx.Err() != nil {
					break claim
				}
				src := sources[wi/cfg.WalksPerVertex]
				root.SplitTo(uint64(wi), &st.rng)
				p, err := e.walkOneSafe(bctx, ctxSampler, wi, src, cfg, &st.rng, st)
				walked++
				if err == nil && failed.samplerFailed() {
					break claim
				}
				if err == nil && cfg.Sink != nil {
					err = cfg.Sink(wi, p)
				}
				if err != nil {
					failed.fail(err)
					break claim
				}
			}
		}
		if bsp != nil {
			// Per-batch hot-layer aggregates: sampled steps, slots the
			// sampler examined (trunk/level traffic for HPAT/PAT), and
			// the Dynamic_parameter rejection counters.
			bsp.SetInt("walks", int64(walked))
			bsp.SetInt("steps", st.cost.Steps)
			bsp.SetInt("edges_evaluated", st.cost.EdgesEvaluated)
			bsp.SetInt("trials", st.cost.Trials)
			bsp.SetInt("rejected", st.cost.Rejected)
			bsp.End()
		}
	}
	if len(results) == 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
}

// walkOneSafe runs one walk, converting a panic in user code into an error
// that names the walk instead of crashing the process. The panicked walk is
// accounted explicitly (Cost.WalksPanicked) so the started ==
// completed + dead-ended + cancelled + panicked invariant survives the
// abort; its length is not observed in the histogram because the walk has no
// graph-determined end.
func (e *Engine) walkOneSafe(ctx context.Context, cs ContextSampler, walkID int, src temporal.Vertex, cfg WalkConfig, r *xrand.Rand, st *walkerState) (p Path, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			st.cost.WalksPanicked++
			err = fmt.Errorf("core: walk %d from vertex %d panicked: %v", walkID, src, rec)
		}
	}()
	return e.walkOne(ctx, cs, walkID, src, cfg, r, st), nil
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
// configured length, cancellation when it ended early while the run's
// context was being torn down (a cancelled sampler returning ok=false is
// indistinguishable from a temporal dead end at the sampler contract, so the
// context is the tiebreaker), and a genuine temporal dead end otherwise.
func (st *walkerState) finishWalk(ctx context.Context, steps, length int) {
	st.lengths.Observe(steps)
	switch {
	case steps == length:
		st.cost.WalksCompleted++
	case ctx.Err() != nil:
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
// exactly as before.
func (e *Engine) walkOne(ctx context.Context, cs ContextSampler, walkID int, src temporal.Vertex, cfg WalkConfig, r *xrand.Rand, st *walkerState) Path {
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
	for steps < cfg.Length {
		if k == 0 {
			break
		}
		if steps&ctxCheckMask == ctxCheckMask && ctx.Err() != nil {
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
	st.finishWalk(ctx, steps, cfg.Length)
	return p
}
