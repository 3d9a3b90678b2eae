package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/ooc"
	"github.com/tea-graph/tea/internal/stats"
	"github.com/tea-graph/tea/internal/temporal"
)

// Window sizes at full scale. The out-of-core engine walks on one thread
// through pread, so its windows are smaller to cost about as much as the
// others; the API window is a batch of request-shaped library calls.
const (
	corpusWindowStarts = 2500
	oocWindowStarts    = 500
	apiWindowCalls     = 1000
	corpusSetups       = 5
)

// corpusRig is everything the corpus workload walks on: one graph, the
// exponential-bias engine, a node2vec engine sharing its weights and HPAT,
// and an out-of-core engine over a DiskPAT with a 10 %-of-store block cache.
type corpusRig struct {
	g      *temporal.Graph
	eng    *core.Engine
	n2v    *core.Engine
	disk   *ooc.DiskPAT
	store  *ooc.Store
	oocEng *ooc.Engine
	starts []temporal.Vertex
}

// buildEngine is the corpus (and serve-single) set-up: edge slice to an
// engine that can walk.
func buildEngine(e *env) (*temporal.Graph, *core.Engine, error) {
	g, err := temporal.FromEdges(e.stream.Edges, temporal.WithNumVertices(e.stream.V))
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.NewEngine(g, core.ExponentialWalk(e.stream.Lambda()), core.Options{})
	if err != nil {
		return nil, nil, err
	}
	return g, eng, nil
}

// finish adds the node2vec and out-of-core engines to a rig that has its
// graph and exponential engine.
func (rig *corpusRig) finish(e *env) error {
	var err error
	rig.n2v, err = core.NewEngine(rig.g, core.TemporalNode2Vec(0.5, 2, e.stream.Lambda()), core.Options{
		ExternalWeights: rig.eng.Weights(),
		ExternalSampler: rig.eng.Sampler(),
	})
	if err != nil {
		return err
	}
	rig.store, err = ooc.Open(filepath.Join(e.dir, "corpus-ooc.dat"))
	if err != nil {
		return err
	}
	rig.disk, err = ooc.BuildDiskPAT(rig.eng.Weights(), rig.store, 0)
	if err != nil {
		return err
	}
	storeBytes, err := rig.store.Append(nil) // end offset == store size
	if err != nil {
		return err
	}
	rig.oocEng = ooc.NewEngineWithOptions(rig.g, rig.disk, nil, ooc.EngineOptions{
		Cache: ooc.CacheConfig{CapacityBytes: storeBytes / 10},
	})
	rig.starts = e.stream.Starts(e.seed)
	return nil
}

func (rig *corpusRig) close() {
	if rig.store != nil {
		_ = rig.store.Close() // read-only after the build
	}
}

// slice returns window i's start vertices: n consecutive entries of the
// seeded permutation, wrapping around.
func (rig *corpusRig) slice(i, n int) []temporal.Vertex {
	v := len(rig.starts)
	lo := ((i + 1) * n) % v // the warm-up window (-1) takes the first slice
	if lo+n <= v {
		return rig.starts[lo : lo+n]
	}
	out := append([]temporal.Vertex(nil), rig.starts[lo:]...)
	return append(out, rig.starts[:n-len(out)]...)
}

// pathTap is the corpus consumer: a WalkConfig.Visitor that folds every step
// into a per-walk checksum and keeps the hops of one walk in a hundred so
// they can be verified after the clock has stopped. Only one worker touches
// a given walk at a time, so it takes no locks.
type pathTap struct {
	sums []uint64
	kept [][]hop
}

type hop struct {
	from, to temporal.Vertex
	at       temporal.Time
}

const keepEvery = 100

func newPathTap(walks int) *pathTap {
	return &pathTap{sums: make([]uint64, walks), kept: make([][]hop, (walks+keepEvery-1)/keepEvery)}
}

func (t *pathTap) reset() {
	clear(t.sums)
	for i := range t.kept {
		t.kept[i] = t.kept[i][:0]
	}
}

func (t *pathTap) visit(walkID, step int, from, to temporal.Vertex, at temporal.Time) {
	t.sums[walkID] += mix(uint64(step)<<32^uint64(from)) ^ mix(uint64(to)<<32^uint64(at))
	if walkID%keepEvery == 0 {
		t.kept[walkID/keepEvery] = append(t.kept[walkID/keepEvery], hop{from, to, at})
	}
}

// checksum folds the per-walk sums into one number for the window.
func (t *pathTap) checksum() uint64 {
	var sum uint64
	for id, s := range t.sums {
		sum += mix(uint64(id) ^ s)
	}
	return sum
}

// verify checks the kept walks are temporal paths from their start vertices.
func (t *pathTap) verify(c *checker, starts []temporal.Vertex) {
	for i, hops := range t.kept {
		if len(hops) == 0 {
			continue
		}
		verts := []temporal.Vertex{hops[0].from}
		var times []temporal.Time
		for _, h := range hops {
			if h.from != verts[len(verts)-1] {
				c.failf("corpus walk %d: hop leaves %d but the walker stood on %d", i*keepEvery, h.from, verts[len(verts)-1])
				return
			}
			verts = append(verts, h.to)
			times = append(times, h.at)
		}
		if err := c.temporalPath(starts[i*keepEvery], verts, times); err != nil {
			c.failf("corpus walk %d: %v", i*keepEvery, err)
			return
		}
	}
	c.ran("walks_verified", len(t.kept))
}

// enginePhase returns a phase that runs windows of n start vertices through
// eng.RunContext. Phases given the same id walk identical windows, which is
// what lets their checksums be compared; sums receives window i's checksum.
// The returned cost accumulates the measured windows' engine counters.
func (rig *corpusRig) enginePhase(e *env, name string, eng *core.Engine, id, n, threads int, kernel core.Kernel, sums map[int]uint64) (*phase, *stats.Cost) {
	tap := newPathTap(n)
	cost := &stats.Cost{}
	return &phase{name: name, run: func(ctx context.Context, i int) (window, error) {
		starts := rig.slice(i, n)
		tap.reset()
		span := e.rec.Begin(name, -1, i)
		t0 := time.Now()
		res, err := eng.RunContext(ctx, core.WalkConfig{
			StartVertices: starts,
			Length:        walkLength,
			Threads:       threads,
			Seed:          windowSeed(e.seed, id, i),
			Kernel:        kernel,
			Visitor:       tap.visit,
		})
		wall := time.Since(t0)
		e.rec.End(span)
		if err != nil {
			return window{}, fmt.Errorf("%s window %d: %w", name, i, err)
		}
		tap.verify(e.check, starts)
		if i >= 0 {
			cost.Add(res.Cost)
			if sums != nil {
				sums[i] = tap.checksum()
			}
		}
		return window{work: float64(res.Cost.Steps), wall: wall, attempted: n}, nil
	}}, cost
}

// oocTally sums the device and cache traffic of the measured ooc windows.
type oocTally struct {
	deviceBytes, readOps             int64
	hits, misses, coalesced, evicted int64
}

// oocPhase walks windows through the out-of-core engine.
func (rig *corpusRig) oocPhase(e *env, n int) (*phase, *oocTally) {
	tally := &oocTally{}
	return &phase{name: "ooc", run: func(ctx context.Context, i int) (window, error) {
		starts := rig.slice(i, n)
		bytes0, ops0, _, _ := rig.store.Counters()
		cache0 := rig.oocEng.Cache().Stats()
		span := e.rec.Begin("ooc", -1, i)
		t0 := time.Now()
		res, err := rig.oocEng.RunStarts(ctx, starts, walkLength, windowSeed(e.seed, 3, i))
		wall := time.Since(t0)
		e.rec.End(span)
		if err != nil {
			return window{}, fmt.Errorf("ooc window %d: %w", i, err)
		}
		if i >= 0 {
			bytes1, ops1, _, _ := rig.store.Counters()
			cache1 := rig.oocEng.Cache().Stats()
			tally.deviceBytes += bytes1 - bytes0
			tally.readOps += ops1 - ops0
			tally.hits += cache1.Hits - cache0.Hits
			tally.misses += cache1.Misses - cache0.Misses
			tally.coalesced += cache1.Coalesced - cache0.Coalesced
			tally.evicted += cache1.Evictions - cache0.Evictions
		}
		return window{work: float64(res.Cost.Steps), wall: wall, attempted: n}, nil
	}}, tally
}

// apiPhase times request-shaped library calls — walkCount walks from one
// vertex with paths kept, what an embedding application or the HTTP handler
// asks of the engine — from e.conc concurrent callers. It is the corpus
// workload's walk latency: a kernel that gets faster in bulk by paying more
// per call shows here.
func (rig *corpusRig) apiPhase(e *env, n int, lat *[]float64) *phase {
	return &phase{name: "api", run: func(ctx context.Context, i int) (window, error) {
		batch := e.stream.Requests(n, windowSeed(e.seed, 4, i))
		sink := lat
		if i < 0 {
			sink = nil
		}
		return closedLoop(ctx, e.check, "api call", e.conc, n, sink, func(_, j int) (int, error) {
			r := batch[j]
			res, err := rig.eng.RunContext(ctx, walkConfig(r))
			if err != nil {
				return 0, err
			}
			if j%decodeEvery == 0 {
				for k, p := range res.Paths {
					if err := e.check.temporalPath(r.From, p.Vertices, p.Times); err != nil {
						return 0, fmt.Errorf("walk %d from %d: %w", k, r.From, err)
					}
				}
				e.check.ran("walks_verified", len(res.Paths))
			}
			return int(res.Cost.Steps), nil
		}), nil
	}}
}

// compareChecksums requires every window's paths to be the same whether
// e.conc threads or one walked it: the engine's determinism oracle.
func compareChecksums(e *env, sumsN, sums1 map[int]uint64) {
	for i, s := range sumsN {
		if s != sums1[i] {
			e.check.failf("corpus window %d: path checksum %x with %d threads but %x with 1", i, s, e.conc, sums1[i])
		}
	}
	e.check.ran("checksum_pairs", len(sumsN))
}

// runCorpus is the offline embedding-corpus workload.
func runCorpus(ctx context.Context, e *env, rep *Report) error {
	rig := &corpusRig{}
	defer rig.close()
	setup, _, err := medianSetup(e.setups(corpusSetups), func() (func(), error) {
		g, eng, err := buildEngine(e)
		rig.g, rig.eng = g, eng
		return func() { rig.g, rig.eng = nil, nil }, err
	})
	if err != nil {
		return err
	}
	// Taken before the node2vec engine adds its neighbour index to the graph.
	bytesPerEdge := float64(rig.eng.MemoryBytes()) / float64(rig.g.NumEdges())
	if err := rig.finish(e); err != nil {
		return err
	}

	n := e.scaled(corpusWindowStarts)
	sumsN, sums1 := map[int]uint64{}, map[int]uint64{}
	var lat []float64
	expN, _ := rig.enginePhase(e, "exp", rig.eng, 1, n, e.conc, core.KernelAuto, sumsN)
	exp1, _ := rig.enginePhase(e, "exp-1t", rig.eng, 1, n, 1, core.KernelAuto, sums1)
	n2v, _ := rig.enginePhase(e, "n2v", rig.n2v, 2, n, e.conc, core.KernelAuto, nil)
	oocP, _ := rig.oocPhase(e, e.scaled(oocWindowStarts))
	api := rig.apiPhase(e, e.scaled(apiWindowCalls), &lat)
	if err := interleave(ctx, e, expN, exp1, n2v, oocP, api); err != nil {
		return err
	}
	compareChecksums(e, sumsN, sums1)

	for _, p := range []*phase{expN, exp1, n2v, oocP, api} {
		rep.phase(p)
	}
	rep.put("setup_s", setup, nil)
	rep.series("steps_per_s", expN.rates, expN)
	rep.series("steps_per_s_1t", exp1.rates, exp1)
	rep.series("steps_per_s_n2v", n2v.rates, n2v)
	rep.series("steps_per_s_ooc", oocP.rates, oocP)
	e.latency(rep, lat, api)
	rep.value("index_bytes_per_edge", bytesPerEdge, nil)
	return nil
}
