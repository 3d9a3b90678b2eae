package core

// batch.go implements the batched walk kernel (ROADMAP 2(a)): each worker
// keeps a frontier of batchChunk resident walkers in flat struct-of-arrays
// state — the layout GPU temporal-walk samplers use — and advances all of
// them one step per sweep: one BatchSampler.SampleBatch call draws for the
// whole frontier, then one pass gathers every proposal's edge data, so the
// walkers' cache misses overlap instead of queuing walker by walker. A slot
// whose walker ends is refilled with the next walk id the worker claims, so
// workers never wait on one another. For disk-backed samplers the frontier
// is sorted by vertex (FrontierGrouper) so fetches for walkers parked on the
// same vertex coalesce.
//
// Determinism: walker wi's randomness comes exclusively from its private
// stream root.Split(wi), and the batched trial rounds consume that stream in
// exactly the scalar order (sample draw, then β draw per rejection trial), so
// this kernel replays byte-identical seeded walks versus the scalar path —
// the scalar kernel is the batched kernel's correctness oracle.

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

const (
	// batchChunk is the number of walkers resident in one batch worker's
	// frontier. It is also the kernel's cancellation latency bound: a worker
	// checks the run context between sweeps, and a sweep takes at most one
	// step per walker, so a cancelled run overruns by at most
	// threads×batchChunk steps.
	batchChunk = 64
	// batchAutoMinWalks is the smallest run KernelAuto sends to the batched
	// kernel; below it the scalar kernel's per-walk latency wins
	// (BenchmarkRequestShapedKernels times both at request size). On the
	// benchmark's corpus windows (2,500 walks of 80 steps) the batched
	// kernel outruns the scalar one (DESIGN §9, PERF.md).
	batchAutoMinWalks = 2048
)

// waveState is one batch worker's resident frontier: batchChunk walker slots
// in struct-of-arrays form. frontier[:nlive] lists the occupied slots (a
// sweep marks a slot whose walker ended -1 in place), free[:nfree] the empty
// ones.
type waveState struct {
	walk     [batchChunk]int             // walk id
	cur      [batchChunk]temporal.Vertex // current vertex
	prev     [batchChunk]temporal.Vertex // previous vertex (β test), valid when hasPrev
	kcand    [batchChunk]int32           // candidate count at cur (the walker's clock)
	steps    [batchChunk]int32           // steps taken so far
	rng      [batchChunk]xrand.Rand      // private random stream, seeded via SplitTo
	hasPrev  [batchChunk]bool
	paths    [batchChunk]Path // walks so far, kept only when the run has a sink
	frontier [batchChunk]int32
	free     [batchChunk]int32
	nlive    int
	nfree    int
}

// endWalk classifies walker i at its current step count (complete: it
// reached the run's length or restarted), hands its path to the run's sink
// and returns its slot to the free list.
func (ws *waveState) endWalk(done <-chan struct{}, cfg *WalkConfig, st *walkerState, i int32, complete bool) error {
	st.finishWalk(done, int(ws.steps[i]), complete)
	ws.free[ws.nfree] = i
	ws.nfree++
	if cfg.Sink == nil {
		return nil
	}
	return cfg.Sink(ws.walk[i], ws.paths[i])
}

// batchScratch is one worker's reusable gather/scatter buffers, sized to the
// frontier so a sweep allocates nothing. dst/at/next hold each proposal's
// head, time and candidate count at its head, gathered after the draw;
// lastD/lastT/lastK hold each pending walker's most recent rejected proposal
// (indexed by frontier position) for the trial-cap force-accept.
type batchScratch struct {
	us    [batchChunk]temporal.Vertex
	ks    [batchChunk]int32
	rs    [batchChunk]*xrand.Rand
	edges [batchChunk]int32
	evals [batchChunk]int64
	oks   [batchChunk]bool
	dst   [batchChunk]temporal.Vertex
	at    [batchChunk]temporal.Time
	next  [batchChunk]int32
	pend  [batchChunk]int32
	lastD [batchChunk]temporal.Vertex
	lastT [batchChunk]temporal.Time
	lastK [batchChunk]int32
}

// batchWorker is one batch worker's state, about 11 KB, which the sampler
// call makes escape. runBatch keeps up to 16 idle ones on batchWorkers
// rather than allocating and zeroing one per run: a buffered channel
// (Effective Go's leaky buffer), not a sync.Pool, so whether a run
// allocates does not depend on the GC or on the race detector's pool
// drops. Each field a worker reads is written first, by the load or the
// sweep, except the free list, which runBatch resets.
type batchWorker struct {
	ws waveState
	sc batchScratch
}

var batchWorkers = make(chan *batchWorker, 16)

// runBatch is one worker of the batched kernel. It repeats three steps until
// the run's cursor is spent and no walker is resident: load claimed walk ids
// into the free slots (a source with no candidates at the start time
// dead-ends right there at length 0, as in the scalar loop), sort the
// frontier by (vertex, walk id) when the sampler groups, and sweep it one
// step. A walk starts when it is loaded, and a worker loads only while the
// run's context is live; walkers still resident when the run is cancelled or
// fails end as cancelled here.
func (r *walkRun) runBatch(bctx context.Context, st *walkerState) {
	e, cfg := r.e, &r.cfg
	grouped := false
	if fg, ok := r.bs.(FrontierGrouper); ok {
		grouped = fg.WantsGroupedFrontier()
	}
	var bw *batchWorker
	select {
	case bw = <-batchWorkers:
	default:
		bw = new(batchWorker)
	}
	ws, sc := &bw.ws, &bw.sc
	var cl claim
	for i := range ws.free {
		ws.free[i] = int32(i)
	}
	ws.nfree, ws.nlive = batchChunk, 0
run:
	for !isDone(r.done) {
		for ws.nfree > 0 && !isDone(r.done) {
			wi, ok := r.next(&cl)
			if !ok {
				break
			}
			ws.nfree--
			i := ws.free[ws.nfree]
			src := r.sources[wi/cfg.WalksPerVertex]
			r.root.SplitTo(uint64(wi), &ws.rng[i])
			ws.walk[i], ws.cur[i], ws.hasPrev[i], ws.steps[i] = wi, src, false, 0
			ws.kcand[i] = int32(e.g.CandidateCount(src, cfg.StartTime))
			if cfg.Sink != nil {
				ws.paths[i] = NewPath(src, cfg.Length)
			}
			st.cost.WalksStarted++
			if ws.kcand[i] != 0 {
				ws.frontier[ws.nlive] = i
				ws.nlive++
			} else if err := ws.endWalk(r.done, cfg, st, i, false); err != nil {
				r.failed.fail(err)
				break run
			}
		}
		if ws.nlive == 0 {
			break
		}
		front := ws.frontier[:ws.nlive]
		if grouped && len(front) > 1 {
			slices.SortFunc(front, func(a, b int32) int {
				if c := cmp.Compare(ws.cur[a], ws.cur[b]); c != 0 {
					return c
				}
				return cmp.Compare(ws.walk[a], ws.walk[b])
			})
		}
		if err := e.sweepChunk(bctx, r.done, r.bs, cfg, ws, sc, st, front, r.sources); err != nil {
			r.failed.fail(err)
			break
		}
		if r.failed.samplerFailed() {
			break
		}
		ws.nlive = 0
		for _, i := range front {
			if i >= 0 {
				ws.frontier[ws.nlive] = i
				ws.nlive++
			}
		}
	}
	// Walkers still resident were cut short by cancellation or a failure.
	for _, i := range ws.frontier[:ws.nlive] {
		if i >= 0 {
			if err := ws.endWalk(r.done, cfg, st, i, false); err != nil {
				r.failed.fail(err)
			}
		}
	}
	if cfg.Sink != nil {
		clear(ws.paths[:]) // the sink owns them now
	}
	select {
	case batchWorkers <- bw:
	default: // the list is full
	}
}

// sweepChunk advances every walker in chunk (the worker's frontier) by
// exactly one walk step, or ends it when a run with restart draws one,
// replaying the scalar trial loop batch-wise: each trial round gathers the
// still-pending walkers, draws their proposals in one SampleBatch call, and
// applies the Dynamic_parameter accept/reject test per walker in the scalar
// rand-consumption order. A panic in user code (Visitor, App.Parameter) is
// recovered here, accounted to the offending walk, and returned as an error
// naming it, mirroring walkOneSafe.
func (e *Engine) sweepChunk(bctx context.Context, done <-chan struct{}, bs BatchSampler, cfg *WalkConfig, ws *waveState, sc *batchScratch, st *walkerState, chunk []int32, sources []temporal.Vertex) (err error) {
	curWalk, curPos := -1, -1
	defer func() {
		if rec := recover(); rec != nil {
			if curWalk >= 0 {
				st.cost.WalksPanicked++
				chunk[curPos] = -1
				err = fmt.Errorf("core: walk %d from vertex %d panicked: %v",
					curWalk, sources[curWalk/cfg.WalksPerVertex], rec)
			} else {
				err = fmt.Errorf("core: batched sample over %d walkers panicked: %v", len(chunk), rec)
			}
		}
	}()

	// A run with restart (RunRestart) draws each walker's restart before
	// the sweep's first sample, the order walkOne draws in.
	pend := sc.pend[:0]
	for pos, i := range chunk {
		if cfg.restart > 0 && ws.rng[i].Float64() < cfg.restart {
			chunk[pos] = -1
			if err := ws.endWalk(done, cfg, st, i, true); err != nil {
				return err
			}
			continue
		}
		pend = append(pend, int32(pos))
	}
	for trial := 0; trial < betaTrialCap && len(pend) > 0; trial++ {
		m := len(pend)
		for j, pos := range pend {
			i := chunk[pos]
			sc.us[j] = ws.cur[i]
			sc.ks[j] = ws.kcand[i]
			sc.rs[j] = &ws.rng[i]
		}
		curWalk, curPos = -1, -1
		bs.SampleBatch(bctx, sc.us[:m], sc.ks[:m], sc.rs[:m], sc.edges[:m], sc.evals[:m], sc.oks[:m])
		// One gather pass loads every proposal's head, time and candidate
		// count at its head before the β test and applyStep read any of
		// them, so the walkers' misses overlap. It makes no random draw.
		for j := 0; j < m; j++ {
			if sc.oks[j] {
				u, edge := sc.us[j], int(sc.edges[j])
				sc.dst[j], sc.at[j] = e.g.EdgeAt(u, edge)
				sc.next[j] = int32(e.g.CandidateCountAfterEdge(u, edge))
			}
		}
		// keep reuses pend's backing array: by the time pend[j] is read, at
		// most j entries have been rewritten behind it.
		keep := pend[:0]
		for j := 0; j < m; j++ {
			pos := pend[j]
			i := chunk[pos]
			st.cost.EdgesEvaluated += sc.evals[j]
			if !sc.oks[j] {
				// Zero-weight candidate prefix — or the sampler observed
				// the cancelled context; finishWalk tells them apart.
				chunk[pos] = -1
				if err := ws.endWalk(done, cfg, st, i, false); err != nil {
					return err
				}
				continue
			}
			curWalk, curPos = ws.walk[i], int(pos)
			if ws.hasPrev[i] && !e.accept(ws.prev[i], sc.dst[j], &ws.rng[i], &st.cost) {
				sc.lastD[pos] = sc.dst[j]
				sc.lastT[pos] = sc.at[j]
				sc.lastK[pos] = sc.next[j]
				keep = append(keep, pos)
				curWalk, curPos = -1, -1
				continue
			}
			if err := e.applyStep(done, cfg, ws, st, chunk, pos, sc.dst[j], sc.at[j], sc.next[j]); err != nil {
				return err
			}
			curWalk, curPos = -1, -1
		}
		pend = keep
	}
	// Trial cap reached; force-accept each pending walker's last proposal to
	// guarantee progress (same documented deviation as the scalar loop).
	for _, pos := range pend {
		i := chunk[pos]
		curWalk, curPos = ws.walk[i], int(pos)
		if err := e.applyStep(done, cfg, ws, st, chunk, pos, sc.lastD[pos], sc.lastT[pos], sc.lastK[pos]); err != nil {
			return err
		}
		curWalk, curPos = -1, -1
	}
	return nil
}

// applyStep commits an accepted proposal (u, dst, at) for the walker at
// chunk[pos]: path append, visitor callback, clock advance to k, the
// candidate count after the taken edge, and terminal classification when the
// walker reaches the configured length or the new vertex has no temporal
// candidates.
func (e *Engine) applyStep(done <-chan struct{}, cfg *WalkConfig, ws *waveState, st *walkerState, chunk []int32, pos int32, dst temporal.Vertex, at temporal.Time, k int32) error {
	i := chunk[pos]
	wi := ws.walk[i]
	u := ws.cur[i]
	stepNo := int(ws.steps[i])
	st.cost.Steps++
	if cfg.Sink != nil {
		p := &ws.paths[i]
		p.Vertices = append(p.Vertices, dst)
		p.Times = append(p.Times, at)
	}
	if cfg.Visitor != nil {
		cfg.Visitor(wi, stepNo, u, dst, at)
	}
	ws.prev[i], ws.hasPrev[i] = u, true
	ws.cur[i] = dst
	ws.kcand[i] = k
	ws.steps[i] = int32(stepNo + 1)
	if stepNo+1 == cfg.Length || k == 0 {
		chunk[pos] = -1
		return ws.endWalk(done, cfg, st, i, stepNo+1 == cfg.Length)
	}
	return nil
}
