package core

// batch.go implements the step-synchronous walk kernel (ROADMAP 2(a)): live
// walkers are kept in flat struct-of-arrays state and the whole frontier is
// advanced one synchronized step at a time — the layout GPU temporal-walk
// samplers use for coalesced sampling-structure lookups, and the one a future
// SIMD/GPU backend needs. Each step, workers claim fixed-size chunks of the
// frontier off a shared cursor (dynamic distribution), gather their walkers'
// positions into flat arrays, and hand them to the sampler in one
// BatchSampler.SampleBatch call; for disk-backed samplers the frontier is
// additionally sorted by vertex (FrontierGrouper) so fetches for walkers
// parked on the same vertex coalesce deliberately instead of relying on
// blockcache singleflight luck.
//
// Determinism: walker wi's randomness comes exclusively from its private
// stream root.Split(wi), and the batched trial rounds consume that stream in
// exactly the scalar order (sample draw, then β draw per rejection trial), so
// this kernel replays byte-identical seeded walks versus the scalar path —
// the scalar kernel is the batched kernel's correctness oracle.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/trace"
	"github.com/tea-graph/tea/internal/xrand"
)

const (
	// DefaultBatchWave bounds how many walks are resident in the batched
	// kernel's flat state at once. At ~32 bytes of SoA state per walker a
	// wave is ~2 MiB regardless of the run's total walk count.
	DefaultBatchWave = 1 << 16
	// batchChunk is the number of frontier entries a worker claims per bump
	// of the shared cursor within one step. It is also the kernel's
	// cancellation latency bound: a worker checks the run context between
	// chunks, so a cancelled run overruns by at most threads×batchChunk
	// steps.
	batchChunk = 64
	// batchAutoMinWalks is the smallest run KernelAuto sends to the batched
	// kernel; below it no frontier worth synchronizing forms and the scalar
	// kernel's per-walk latency wins. The threshold sits just above the
	// measured crossover on the quick bench profiles (~1-2k walks), where
	// the per-step worker synchronization stops dominating the sweep work.
	batchAutoMinWalks = 2048
)

// waveState is the flat struct-of-arrays walker state for one wave of the
// batched kernel. Index i is walker waveLo+i; frontier holds the indices of
// walkers still alive, and dead walkers are marked by writing -1 into their
// frontier slot (compacted between steps by the coordinator).
type waveState struct {
	waveLo   int               // walk id of index 0 in the current wave
	cur      []temporal.Vertex // current vertex
	prev     []temporal.Vertex // previous vertex (β test), valid when hasPrev
	kcand    []int32           // candidate count at cur (the walker's clock)
	steps    []int32           // steps taken so far
	rng      []xrand.Rand      // private random stream, seeded via SplitTo
	hasPrev  []bool
	started  []bool // first swept by a worker; WalksStarted counted then
	paths    []Path // walks so far, kept only when the run has a sink
	frontier []int32
}

func (ws *waveState) resize(n int) {
	if cap(ws.cur) < n {
		ws.cur = make([]temporal.Vertex, n)
		ws.prev = make([]temporal.Vertex, n)
		ws.kcand = make([]int32, n)
		ws.steps = make([]int32, n)
		ws.rng = make([]xrand.Rand, n)
		ws.hasPrev = make([]bool, n)
		ws.started = make([]bool, n)
		ws.frontier = make([]int32, 0, n)
	}
	ws.cur = ws.cur[:n]
	ws.prev = ws.prev[:n]
	ws.kcand = ws.kcand[:n]
	ws.steps = ws.steps[:n]
	ws.rng = ws.rng[:n]
	ws.hasPrev = ws.hasPrev[:n]
	ws.started = ws.started[:n]
	ws.frontier = ws.frontier[:0]
}

// endWalk classifies walker i at its current step count and hands its path
// to the run's sink.
func (ws *waveState) endWalk(ctx context.Context, cfg *WalkConfig, st *walkerState, i int32) error {
	st.finishWalk(ctx, int(ws.steps[i]), cfg.Length)
	if cfg.Sink == nil {
		return nil
	}
	return cfg.Sink(ws.waveLo+int(i), ws.paths[i])
}

// batchScratch is one worker's reusable gather/scatter buffers, sized to the
// chunk so a sweep allocates nothing. lastE/lastD/lastT hold each pending
// walker's most recent rejected proposal (indexed by chunk position) for the
// trial-cap force-accept.
type batchScratch struct {
	us    [batchChunk]temporal.Vertex
	ks    [batchChunk]int32
	rs    [batchChunk]*xrand.Rand
	edges [batchChunk]int32
	evals [batchChunk]int64
	oks   [batchChunk]bool
	pend  [batchChunk]int32
	lastE [batchChunk]int32
	lastD [batchChunk]temporal.Vertex
	lastT [batchChunk]temporal.Time
}

// runBatch executes the run on the step-synchronous kernel. Waves of at most
// cfg.BatchWave walks are initialized into ws; within a wave the coordinator
// releases the worker pool once per step (one token per worker through
// stepGate), workers sweep frontier chunks off the shared cursor, and the
// coordinator compacts the frontier after the step barrier. Classification
// during wave init (zero-candidate sources) and cancellation drain happen on
// the coordinator between barriers, so results[0] is only touched while
// workers are parked.
func (e *Engine) runBatch(runCtx context.Context, runSpan *trace.Span, cfg WalkConfig, bs BatchSampler, sources []temporal.Vertex, totalWalks, threads int, root *xrand.Rand, results []walkerState, failed *runFailure) {
	grouped := false
	if fg, ok := bs.(FrontierGrouper); ok {
		grouped = fg.WantsGroupedFrontier()
	}
	waveSize := cfg.BatchWave
	if waveSize > totalWalks {
		waveSize = totalWalks
	}
	var ws waveState
	ws.resize(waveSize)

	var (
		wwg      sync.WaitGroup // worker lifetimes
		swg      sync.WaitGroup // per-step barrier
		cursor   atomic.Int64
		stepGate = make(chan struct{})
	)
	for w := 0; w < threads; w++ {
		wwg.Add(1)
		go func(worker int) {
			defer wwg.Done()
			bctx := runCtx
			var bsp *trace.Span
			if runSpan != nil {
				bctx, bsp = trace.Start(runCtx, "walk_batch")
				bsp.SetInt("worker", int64(worker))
			}
			st := &results[worker]
			var sc batchScratch
			for range stepGate {
				e.sweepStep(bctx, runCtx, bs, &cfg, &ws, &sc, st, &cursor, sources, failed)
				swg.Done()
			}
			if bsp != nil {
				bsp.SetInt("steps", st.cost.Steps)
				bsp.SetInt("edges_evaluated", st.cost.EdgesEvaluated)
				bsp.SetInt("trials", st.cost.Trials)
				bsp.SetInt("rejected", st.cost.Rejected)
				bsp.End()
			}
		}(w)
	}

	st0 := &results[0]
	for waveLo := 0; waveLo < totalWalks; waveLo += waveSize {
		if runCtx.Err() != nil {
			break // remaining waves never start; their walks stay uncounted
		}
		waveHi := waveLo + waveSize
		if waveHi > totalWalks {
			waveHi = totalWalks
		}
		if err := e.initWave(&cfg, sources, waveLo, waveHi, &ws, root, st0); err != nil {
			failed.fail(err)
		}
		for s := 0; s < cfg.Length && len(ws.frontier) > 0; s++ {
			if runCtx.Err() != nil {
				break
			}
			if grouped && len(ws.frontier) > 1 {
				sortFrontier(&ws)
			}
			cursor.Store(0)
			swg.Add(threads)
			for i := 0; i < threads; i++ {
				stepGate <- struct{}{}
			}
			swg.Wait()
			compactFrontier(&ws)
		}
		// Walkers still on the frontier here were cut short by cancellation
		// (a natural wave end drains the frontier through completion or
		// dead-end classification inside the sweep). Walkers no sweep ever
		// touched were never started — like the scalar kernel's unclaimed
		// walk ids, they are neither counted nor classified.
		for _, i := range ws.frontier {
			if i >= 0 && ws.started[i] {
				if err := ws.endWalk(runCtx, &cfg, st0, i); err != nil {
					failed.fail(err)
				}
			}
		}
		ws.frontier = ws.frontier[:0]
	}
	close(stepGate)
	wwg.Wait()
}

// initWave seeds walkers [waveLo, waveHi) into ws: start vertex, initial
// candidate count under cfg.StartTime, and the walker's private random stream
// (root.SplitTo keeps the per-walk stream identical to the scalar kernel's
// root.Split). Sources whose candidate set is empty at the start time
// dead-end immediately at length 0, exactly as in the scalar loop, and reach
// the sink here.
func (e *Engine) initWave(cfg *WalkConfig, sources []temporal.Vertex, waveLo, waveHi int, ws *waveState, root *xrand.Rand, st *walkerState) error {
	n := waveHi - waveLo
	ws.resize(n)
	ws.waveLo = waveLo
	if cfg.Sink != nil && ws.paths == nil {
		ws.paths = make([]Path, n) // the first wave is the largest
	}
	for i := 0; i < n; i++ {
		wi := waveLo + i
		src := sources[wi/cfg.WalksPerVertex]
		root.SplitTo(uint64(wi), &ws.rng[i])
		ws.cur[i] = src
		ws.hasPrev[i] = false
		ws.started[i] = false
		ws.steps[i] = 0
		k := e.g.CandidateCount(src, cfg.StartTime)
		ws.kcand[i] = int32(k)
		if cfg.Sink != nil {
			ws.paths[i] = NewPath(src, cfg.Length)
		}
		if k == 0 {
			// Dead on arrival: started and classified right here, exactly
			// like the scalar loop's zero-candidate source.
			st.cost.WalksStarted++
			st.lengths.Observe(0)
			st.cost.WalksDeadEnded++
			if cfg.Sink != nil {
				if err := cfg.Sink(wi, ws.paths[i]); err != nil {
					return err
				}
			}
			continue
		}
		ws.frontier = append(ws.frontier, int32(i))
	}
	return nil
}

// sortFrontier orders the frontier by current vertex (walker index as the
// tiebreaker, keeping the order deterministic) so that a grouping sampler
// sees same-vertex walkers adjacently.
func sortFrontier(ws *waveState) {
	f, cur := ws.frontier, ws.cur
	sort.Slice(f, func(a, b int) bool {
		va, vb := cur[f[a]], cur[f[b]]
		if va != vb {
			return va < vb
		}
		return f[a] < f[b]
	})
}

// compactFrontier removes walkers marked dead (-1) during the last sweep.
func compactFrontier(ws *waveState) {
	live := ws.frontier[:0]
	for _, i := range ws.frontier {
		if i >= 0 {
			live = append(live, i)
		}
	}
	ws.frontier = live
}

// sweepStep advances the sweeping worker through the current step: claim a
// chunk of the frontier off the shared cursor, process it, repeat until the
// frontier is exhausted or the run is torn down. The sampler's sticky error
// is checked after every chunk.
func (e *Engine) sweepStep(bctx, runCtx context.Context, bs BatchSampler, cfg *WalkConfig, ws *waveState, sc *batchScratch, st *walkerState, cursor *atomic.Int64, sources []temporal.Vertex, failed *runFailure) {
	n := int64(len(ws.frontier))
	for runCtx.Err() == nil {
		lo := cursor.Add(batchChunk) - batchChunk
		if lo >= n {
			return
		}
		hi := lo + batchChunk
		if hi > n {
			hi = n
		}
		if err := e.sweepChunk(bctx, runCtx, bs, cfg, ws, sc, st, ws.frontier[lo:hi], sources); err != nil {
			failed.fail(err)
			return
		}
		if failed.samplerFailed() {
			return
		}
	}
}

// sweepChunk advances every walker in chunk (a slice of the frontier owned
// exclusively by this worker for the step) by exactly one walk step,
// replaying the scalar trial loop batch-wise: each trial round gathers the
// still-pending walkers, draws their proposals in one SampleBatch call, and
// applies the Dynamic_parameter accept/reject test per walker in the scalar
// rand-consumption order. A panic in user code (Visitor, App.Parameter) is
// recovered here, accounted to the offending walk, and returned as an error
// naming it, mirroring walkOneSafe.
func (e *Engine) sweepChunk(bctx, runCtx context.Context, bs BatchSampler, cfg *WalkConfig, ws *waveState, sc *batchScratch, st *walkerState, chunk []int32, sources []temporal.Vertex) (err error) {
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

	// A walk "starts" the first time a sweep picks it up; walks the run never
	// reaches (cancellation before their first step) stay unstarted, matching
	// the scalar kernel.
	pend := sc.pend[:0]
	for pos := range chunk {
		i := chunk[pos]
		if !ws.started[i] {
			ws.started[i] = true
			st.cost.WalksStarted++
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
				if err := ws.endWalk(runCtx, cfg, st, i); err != nil {
					return err
				}
				continue
			}
			u := ws.cur[i]
			dst, at := e.g.EdgeAt(u, int(sc.edges[j]))
			curWalk, curPos = ws.waveLo+int(i), int(pos)
			if ws.hasPrev[i] && !e.accept(ws.prev[i], dst, &ws.rng[i], &st.cost) {
				sc.lastE[pos] = sc.edges[j]
				sc.lastD[pos] = dst
				sc.lastT[pos] = at
				keep = append(keep, pos)
				curWalk, curPos = -1, -1
				continue
			}
			if err := e.applyStep(runCtx, cfg, ws, st, chunk, pos, int(sc.edges[j]), dst, at); err != nil {
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
		curWalk, curPos = ws.waveLo+int(i), int(pos)
		if err := e.applyStep(runCtx, cfg, ws, st, chunk, pos, int(sc.lastE[pos]), sc.lastD[pos], sc.lastT[pos]); err != nil {
			return err
		}
		curWalk, curPos = -1, -1
	}
	return nil
}

// applyStep commits an accepted proposal for the walker at chunk[pos]: path
// append, visitor callback, clock advance (candidate count after the taken
// edge), and terminal classification when the walker reaches the configured
// length or the new vertex has no temporal candidates.
func (e *Engine) applyStep(runCtx context.Context, cfg *WalkConfig, ws *waveState, st *walkerState, chunk []int32, pos int32, edgeIdx int, dst temporal.Vertex, at temporal.Time) error {
	i := chunk[pos]
	wi := ws.waveLo + int(i)
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
	k := e.g.CandidateCountAfterEdge(u, edgeIdx)
	ws.prev[i], ws.hasPrev[i] = u, true
	ws.cur[i] = dst
	ws.kcand[i] = int32(k)
	ws.steps[i] = int32(stepNo + 1)
	if stepNo+1 == cfg.Length || k == 0 {
		chunk[pos] = -1
		return ws.endWalk(runCtx, cfg, st, i)
	}
	return nil
}
