package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tea-graph/tea/bench/measure"
	"github.com/tea-graph/tea/bench/workload"
	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/hpat"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/shard"
	"github.com/tea-graph/tea/internal/shard/wire"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/wal"
	"github.com/tea-graph/tea/internal/xrand"
)

// The traced run ("peel") repeats a workload at one fifth of its size and
// times each layer's public entry point directly, on the same seeded inputs
// the layer above it was given. Each replay depth is a phase, so the depths
// interleave window by window like everything else; a layer's self time is
// its depth's time minus the next depth's.

const (
	peelBuilds      = 3    // repetitions of each timed build step
	peelSamplePairs = 2e6  // (vertex, prefix) pairs replayed through the sampler, at full scale
	peelWindow      = 500  // requests per depth window, at full scale
	peelRounds      = 10   // windows per depth
	peelBatches     = 100  // edge batches replayed at each ingest depth
	sampleBatch     = 64   // SampleBatch chunk
	allocProbe      = 2000 // walks / requests between two MemStats reads
)

// peelEnv returns e set for a traced run's fixed work: peelRounds windows
// per phase and no time budget, so every count repeats exactly.
func peelEnv(e *env) *env {
	pe := *e
	pe.minRounds, pe.budget = min(e.minRounds, peelRounds), 0
	return &pe
}

// untraced is e without its recorder: the same code, no spans.
func untraced(e *env) *env {
	ue := *e
	ue.rec = nil
	return &ue
}

// timed runs fn n times under spans named name and returns the seconds each
// took.
func timed(e *env, name string, n int, fn func() error) ([]float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		span := e.rec.Begin(name, -1, i)
		t0 := time.Now()
		err := fn()
		secs = append(secs, time.Since(t0).Seconds())
		e.rec.End(span)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return secs, nil
}

// depth is one level of a request peel: windows of the shared seeded request
// list replayed one request at a time against one entry point.
type depth struct {
	*phase
	us    []float64             // per-request microseconds over the measured windows
	after func(steps int) error // bookkeeping on the reply, outside the timed call
}

const peelSeedID = 9

// newDepth builds a depth named name. call performs request r (idx is its
// position in the whole list) and returns the steps it produced; only the
// call is timed, and d.after, when set, runs once the clock has stopped.
// rec may be nil for an untraced depth.
func newDepth(e *env, rec *measure.Recorder, name string, n int, call func(ctx context.Context, idx int, r workload.Request) (int, error)) *depth {
	d := &depth{}
	d.phase = &phase{name: name, run: func(ctx context.Context, i int) (window, error) {
		reqs := e.stream.Requests(n, windowSeed(e.seed, peelSeedID, i))
		w := window{attempted: n}
		parent := rec.Begin(name+".window", -1, i)
		start := time.Now()
		for j, r := range reqs {
			idx := max(i, 0)*n + j
			span := rec.Begin(name, parent, idx)
			t0 := time.Now()
			steps, err := call(ctx, idx, r)
			took := time.Since(t0)
			rec.End(span)
			if err == nil && d.after != nil {
				err = d.after(steps)
			}
			if err != nil {
				w.failed++
				e.check.failf("%s request %d: %v", name, idx, err)
				continue
			}
			w.work += float64(steps)
			if i >= 0 {
				d.us = append(d.us, float64(took)/1e3)
			}
		}
		w.wall = time.Since(start)
		rec.End(parent)
		return w, nil
	}}
	return d
}

// overheadPct is the share of throughput the spans cost: traced against
// untraced rates of the same windows.
func overheadPct(untracedRates, tracedRates []float64) float64 {
	u, t := p50(untracedRates), p50(tracedRates)
	return (u - t) / u * 100
}

// gapPct is how far the traced chain's total is from the untraced client's.
func gapPct(tracedUS, untracedUS []float64) float64 {
	t, u := p50(tracedUS), p50(untracedUS)
	if t < u {
		t, u = u, t
	}
	return (t - u) / p50(untracedUS) * 100
}

// samplePairs are (vertex, candidate-prefix length) pairs: what the walk
// kernel asks of the sampler, recorded from real walks.
type samplePairs struct {
	us []temporal.Vertex
	ks []int32
}

// addPaths appends the sampler calls that produced paths on g.
func (sp *samplePairs) addPaths(g *temporal.Graph, paths []core.Path) {
	for _, p := range paths {
		after := temporal.MinTime
		for i, t := range p.Times {
			sp.us = append(sp.us, p.Vertices[i])
			sp.ks = append(sp.ks, int32(g.CandidateCount(p.Vertices[i], after)))
			after = t
		}
	}
}

// peelCorpus times temporal, sampling, hpat, core, ooc and blockcache.
func peelCorpus(ctx context.Context, e *env, rep *Report) error {
	e = peelEnv(e)
	edges := len(e.stream.Edges)
	perEdge := func(b int64) float64 { return float64(b) / float64(edges) }

	var g *temporal.Graph
	secs, err := timed(e, "temporal.FromEdges", peelBuilds, func() (err error) {
		g, err = temporal.FromEdges(e.stream.Edges, temporal.WithNumVertices(e.stream.V))
		return err
	})
	if err != nil {
		return err
	}
	rep.series("temporal.build_s", secs, nil)
	g.PrecomputeCandidates(0)
	rep.value("temporal.bytes_per_edge", perEdge(g.MemoryBytes()), nil)

	var weights *sampling.GraphWeights
	secs, err = timed(e, "sampling.BuildGraphWeights", peelBuilds, func() (err error) {
		weights, err = sampling.BuildGraphWeights(g, sampling.Exponential(e.stream.Lambda()), 0)
		return err
	})
	if err != nil {
		return err
	}
	rep.series("sampling.weights_build_s", secs, nil)

	var idx *hpat.Index
	secs, _ = timed(e, "hpat.Build", peelBuilds, func() error {
		idx = hpat.Build(weights, hpat.Config{})
		return nil
	})
	rep.series("hpat.build_s", secs, nil)
	rep.value("hpat.bytes_per_edge", perEdge(idx.MemoryBytes()), nil)

	rig := &corpusRig{g: g}
	defer rig.close()
	rig.eng, err = core.NewEngine(g, core.ExponentialWalk(e.stream.Lambda()), core.Options{ExternalWeights: weights, ExternalSampler: idx})
	if err != nil {
		return err
	}
	if err := rig.finish(e); err != nil {
		return err
	}

	if err := peelSampler(ctx, e, rep, rig, idx); err != nil {
		return err
	}

	n := e.scaled(corpusWindowStarts)
	sumsN, sums1 := map[int]uint64{}, map[int]uint64{}
	expN, _ := rig.enginePhase(e, "exp", rig.eng, 1, n, e.conc, core.KernelAuto, sumsN)
	bare, _ := rig.enginePhase(untraced(e), "exp-untraced", rig.eng, 1, n, e.conc, core.KernelAuto, nil)
	exp1, cost1 := rig.enginePhase(e, "exp-1t", rig.eng, 1, n, 1, core.KernelAuto, sums1)
	scalar, _ := rig.enginePhase(e, "scalar-1t", rig.eng, 1, n, 1, core.KernelScalar, nil)
	batch, _ := rig.enginePhase(e, "batch-1t", rig.eng, 1, n, 1, core.KernelBatch, nil)
	n2v, costN2V := rig.enginePhase(e, "n2v", rig.n2v, 2, n, e.conc, core.KernelAuto, nil)
	oocP, tally := rig.oocPhase(e, e.scaled(oocWindowStarts))
	phases := []*phase{expN, bare, exp1, scalar, batch, n2v, oocP}
	if err := interleave(ctx, e, phases...); err != nil {
		return err
	}
	compareChecksums(e, sumsN, sums1)
	for _, p := range phases {
		rep.phase(p)
	}

	stepNS := 1e9 / p50(exp1.rates)
	sampleNS, _ := rep.get("hpat.sample_ns")
	rep.value("core.step_ns_1t", stepNS, exp1)
	rep.value("core.kernel_self_ns", stepNS-sampleNS.Value, exp1)
	rep.value("core.scaling_eff", p50(expN.rates)/(float64(e.conc)*p50(exp1.rates)), expN)
	rep.series("core.steps_per_s_scalar", scalar.rates, scalar)
	rep.series("core.steps_per_s_batch", batch.rates, batch)
	rep.value("core.steps", float64(cost1.Steps), exp1)
	rep.value("core.mean_walk_len", float64(cost1.Steps)/float64(cost1.WalksStarted), exp1)
	rep.value("core.dead_end_share", float64(cost1.WalksDeadEnded)/float64(cost1.WalksStarted), exp1)
	rep.value("core.beta_trials_per_step", float64(costN2V.Trials)/float64(costN2V.Steps), n2v)
	rep.series("steps_per_s_1t", exp1.rates, exp1)
	rep.series("steps_per_s_n2v", n2v.rates, n2v)
	rep.series("steps_per_s_ooc", oocP.rates, oocP)
	rep.value("trace_overhead_pct", overheadPct(bare.rates, expN.rates), expN)

	storeBytes, err := rig.store.Append(nil)
	if err != nil {
		return err
	}
	rep.value("ooc.device_bytes_per_step", float64(tally.deviceBytes)/oocP.work, oocP)
	rep.value("ooc.read_ops_per_step", float64(tally.readOps)/oocP.work, oocP)
	rep.value("ooc.store_bytes_per_edge", perEdge(storeBytes), nil)
	rep.value("blockcache.hit_rate", float64(tally.hits+tally.coalesced)/float64(tally.hits+tally.coalesced+tally.misses), oocP)
	rep.value("blockcache.evictions_per_kstep", 1000*float64(tally.evicted)/oocP.work, oocP)

	// Allocation per walk, from the runtime's own counters around one
	// single-threaded run (reading them stops the world, so it is kept out
	// of the timed windows).
	var before, after runtime.MemStats
	starts := rig.slice(0, min(allocProbe, len(rig.starts)))
	runtime.ReadMemStats(&before)
	if _, err := rig.eng.RunContext(ctx, core.WalkConfig{StartVertices: starts, Length: walkLength, Threads: 1, Seed: e.seed}); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	rep.value("core.allocs_per_walk", float64(after.Mallocs-before.Mallocs)/float64(len(starts)), nil)
	rep.value("core.bytes_per_walk", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(starts)), nil)
	return nil
}

// peelSampler records the sampler calls of real walks and replays them
// straight into hpat.Index.Sample and SampleBatch on one thread.
func peelSampler(ctx context.Context, e *env, rep *Report, rig *corpusRig, idx *hpat.Index) error {
	want := int(peelSamplePairs * e.scale)
	var sp samplePairs
	for i := 0; len(sp.us) < want; i++ {
		res, err := rig.eng.RunContext(ctx, core.WalkConfig{
			StartVertices: rig.slice(i, e.scaled(corpusWindowStarts)),
			Length:        walkLength,
			Threads:       1,
			Seed:          windowSeed(e.seed, 5, i),
			KeepPaths:     true,
		})
		if err != nil {
			return err
		}
		sp.addPaths(rig.g, res.Paths)
	}
	sp.us, sp.ks = sp.us[:want], sp.ks[:want]

	var evals int64
	share := 0.0
	for i, u := range sp.us {
		share += float64(sp.ks[i]) / float64(rig.g.Degree(u))
	}
	rands := make([]*xrand.Rand, sampleBatch)
	for i := range rands {
		rands[i] = xrand.New(e.seed + uint64(i))
	}
	edgesOut := make([]int32, sampleBatch)
	evalsOut := make([]int64, sampleBatch)
	oks := make([]bool, sampleBatch)

	scalar := &phase{name: "hpat.Sample", run: func(_ context.Context, i int) (window, error) {
		r := xrand.New(e.seed)
		var ev int64
		span := e.rec.Begin("hpat.Sample", -1, i)
		t0 := time.Now()
		for j, u := range sp.us {
			_, n, _ := idx.Sample(u, int(sp.ks[j]), r)
			ev += n
		}
		wall := time.Since(t0)
		e.rec.End(span)
		evals = ev // the same every pass: the stream is re-seeded
		return window{work: float64(want), wall: wall, attempted: want}, nil
	}}
	batched := &phase{name: "hpat.SampleBatch", run: func(ctx context.Context, i int) (window, error) {
		span := e.rec.Begin("hpat.SampleBatch", -1, i)
		t0 := time.Now()
		for lo := 0; lo+sampleBatch <= want; lo += sampleBatch {
			idx.SampleBatch(ctx, sp.us[lo:lo+sampleBatch], sp.ks[lo:lo+sampleBatch], rands, edgesOut, evalsOut, oks)
		}
		wall := time.Since(t0)
		e.rec.End(span)
		return window{work: float64(want / sampleBatch * sampleBatch), wall: wall, attempted: want}, nil
	}}
	if err := interleave(ctx, e, scalar, batched); err != nil {
		return err
	}
	rep.phase(scalar)
	rep.phase(batched)
	rep.value("hpat.sample_ns", 1e9/p50(scalar.rates), scalar)
	rep.value("hpat.sample_batch_ns", 1e9/p50(batched.rates), batched)
	rep.value("hpat.evals_per_step", float64(evals)/float64(want), scalar)
	rep.value("hpat.prefix_share", share/float64(want), scalar)
	return nil
}

// sizeTally sums /walk body sizes against the steps they carry. A body is
// counted without the wall-clock duration the server prints into it, the
// only part that varies between runs, so the ratio repeats exactly.
type sizeTally struct{ bytes, steps int }

func (t *sizeTally) add(body []byte, steps int) error {
	_, wb, err := decodeWalks(body, walkCount)
	if err != nil {
		return err
	}
	t.bytes += len(body) - len(wb.Cost["duration"])
	t.steps += steps
	return nil
}

func (t *sizeTally) perStep() float64 { return float64(t.bytes) / float64(t.steps) }

// peelServeSingle peels one request: client round trip, ServeHTTP into a
// recorder, the same WalkConfig through RunContext, the sampler calls alone.
func peelServeSingle(ctx context.Context, e *env, rep *Report) error {
	e = peelEnv(e)
	rig := &singleRig{}
	down, err := rig.up(ctx, e)
	if err != nil {
		return err
	}
	defer down()
	client := newWalkClient(rig.addr, 1, e.check)
	defer client.close()
	idx, ok := rig.eng.Sampler().(*hpat.Index)
	if !ok {
		return fmt.Errorf("engine sampler is %T, not the HPAT index", rig.eng.Sampler())
	}
	handler := rig.srv.Handler()
	n := e.scaled(peelWindow)

	var buf bytes.Buffer
	viaHTTP := func(ctx context.Context, i int, r workload.Request) (int, error) {
		return client.one(ctx, r, i%decodeEvery == 0, &buf)
	}
	var reply *httptest.ResponseRecorder
	viaHandler := func(ctx context.Context, _ int, r workload.Request) (int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, walkPath(r), nil)
		if err != nil {
			return 0, err
		}
		reply = httptest.NewRecorder()
		handler.ServeHTTP(reply, req)
		if reply.Code != http.StatusOK {
			return 0, fmt.Errorf("handler status %d", reply.Code)
		}
		return stepsOf(reply.Body.Bytes())
	}
	viaEngine := func(ctx context.Context, _ int, r workload.Request) (int, error) {
		res, err := rig.eng.RunContext(ctx, walkConfig(r))
		if err != nil {
			return 0, err
		}
		return int(res.Cost.Steps), nil
	}
	// The sampler depth needs each request's sampler calls; they are worked
	// out per window before its clock starts.
	pairsOf := map[workload.Request]*samplePairs{}
	rnd := xrand.New(e.seed)
	viaSampler := func(_ context.Context, _ int, r workload.Request) (int, error) {
		sp := pairsOf[r]
		for j, u := range sp.us {
			idx.Sample(u, int(sp.ks[j]), rnd)
		}
		return len(sp.us), nil
	}
	viaFixed := func(ctx context.Context, _ int, r workload.Request) (int, error) {
		_, err := client.get(ctx, fmt.Sprintf("/walk?from=%d&count=1&length=1&seed=%d", r.From, r.Seed), &buf)
		return 1, err
	}

	clientD := newDepth(e, e.rec, "client", n, viaHTTP)
	bareD := newDepth(e, nil, "client-untraced", n, viaHTTP)
	handlerD := newDepth(e, e.rec, "server.ServeHTTP", n, viaHandler)
	var sized sizeTally
	handlerD.after = func(steps int) error { return sized.add(reply.Body.Bytes(), steps) }
	engineD := newDepth(e, e.rec, "core.RunContext", n, viaEngine)
	samplerD := newDepth(e, e.rec, "hpat.Sample", n, viaSampler)
	fixedD := newDepth(e, e.rec, "client.fixed", n, viaFixed)
	prepare := samplerD.run
	samplerD.run = func(ctx context.Context, i int) (window, error) {
		clear(pairsOf)
		for _, r := range e.stream.Requests(n, windowSeed(e.seed, peelSeedID, i)) {
			res, err := rig.eng.RunContext(ctx, walkConfig(r))
			if err != nil {
				return window{}, err
			}
			sp := &samplePairs{}
			sp.addPaths(rig.g, res.Paths)
			pairsOf[r] = sp
		}
		return prepare(ctx, i)
	}
	depths := []*depth{clientD, bareD, handlerD, engineD, samplerD, fixedD}
	phases := make([]*phase, len(depths))
	for i, d := range depths {
		phases[i] = d.phase
	}
	if err := interleave(ctx, e, phases...); err != nil {
		return err
	}
	for _, p := range phases {
		rep.phase(p)
	}
	handlerUS, engineUS := p50(handlerD.us), p50(engineD.us)
	rep.series("server.handler_us", handlerD.us, handlerD.phase)
	rep.series("server.engine_us", engineD.us, engineD.phase)
	rep.value("server.encode_us", handlerUS-engineUS, handlerD.phase)
	rep.value("server.transport_us", p50(clientD.us)-handlerUS, clientD.phase)
	rep.value("server.resp_bytes_per_step", sized.perStep(), handlerD.phase)
	rep.series("server.fixed_overhead_us", fixedD.us, fixedD.phase)
	rep.value("server.chain_gap_pct", gapPct(clientD.us, bareD.us), clientD.phase)
	rep.value("trace_overhead_pct", overheadPct(bareD.rates, clientD.rates), clientD.phase)

	var before, after runtime.MemStats
	reqs := e.stream.Requests(min(allocProbe, n), e.seed^0xa110c)
	runtime.ReadMemStats(&before)
	for i, r := range reqs {
		if _, err := viaHandler(ctx, i, r); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	rep.value("server.allocs_per_req", float64(after.Mallocs-before.Mallocs)/float64(len(reqs)), nil)
	return nil
}

// peelServeCluster peels one routed request: client to router, the owning
// shard's own /walk, Node.RunWalks over TCP peers, one Client.Step.
func peelServeCluster(ctx context.Context, e *env, rep *Report) error {
	e = peelEnv(e)
	rig := &clusterRig{}
	if err := rig.up(ctx, e); err != nil {
		return err
	}
	defer rig.down()
	router := newWalkClient(rig.router, 1, e.check)
	defer router.close()
	part := rig.nodes[0].Partitioner()
	shards := make([]*walkClient, partitions)
	steppers := make([]*wire.Client, partitions)
	for i := range shards {
		shards[i] = newWalkClient(rig.shards[i], 1, e.check)
		defer shards[i].close()
		steppers[i] = wire.NewClient(rig.rpc[i], wire.ClientConfig{})
		defer steppers[i].Close()
	}
	n := e.scaled(clusterWindowN)

	var buf bytes.Buffer
	viaRouter := func(ctx context.Context, i int, r workload.Request) (int, error) {
		return router.one(ctx, r, i%decodeEvery == 0, &buf)
	}
	viaShard := func(ctx context.Context, _ int, r workload.Request) (int, error) {
		body, err := shards[part.Owner(r.From)].get(ctx, walkPath(r), &buf)
		if err != nil {
			return 0, err
		}
		return stepsOf(body)
	}
	var rounds, frames, migrations, bytesSent, steps int64
	viaRunWalks := func(ctx context.Context, _ int, r workload.Request) (int, error) {
		o := part.Owner(r.From)
		res, err := rig.nodes[o].RunWalks(ctx, rig.peers[o], shard.WalkRequest{
			Sources: []temporal.Vertex{r.From}, WalksPerVertex: walkCount, Length: walkLength, Seed: r.Seed, KeepPaths: true,
		})
		if err != nil {
			return 0, err
		}
		rounds += int64(res.Rounds)
		frames += res.Frames
		migrations += res.Migrations
		bytesSent += res.BytesSent
		steps += res.Cost.Steps
		return int(res.Cost.Steps), nil
	}
	viaStep := func(ctx context.Context, _ int, r workload.Request) (int, error) {
		o := part.Owner(r.From)
		resp, err := steppers[o].Step(ctx, &wire.StepRequest{
			FromShard: uint32((o + 1) % partitions), Partitions: partitions, NumVertices: uint32(e.stream.V),
			Walkers: []wire.Walker{{Cur: r.From, Arrival: temporal.MinTime, RNG: *xrand.New(r.Seed)}},
		})
		if err != nil {
			return 0, err
		}
		if len(resp.Results) != 1 || resp.Results[0].Status != wire.StatusStepped {
			return 0, fmt.Errorf("step from %d did not advance", r.From)
		}
		return 1, nil
	}

	routerD := newDepth(e, e.rec, "router", n, viaRouter)
	var sized sizeTally
	routerD.after = func(steps int) error { return sized.add(buf.Bytes(), steps) }
	bareD := newDepth(e, nil, "router-untraced", n, viaRouter)
	shardD := newDepth(e, e.rec, "shard.http", n, viaShard)
	coordD := newDepth(e, e.rec, "shard.RunWalks", n, viaRunWalks)
	stepD := newDepth(e, e.rec, "wire.Step", n, viaStep)
	depths := []*depth{routerD, bareD, shardD, coordD, stepD}
	phases := make([]*phase, len(depths))
	for i, d := range depths {
		phases[i] = d.phase
	}
	if err := interleave(ctx, e, phases...); err != nil {
		return err
	}
	for _, p := range phases {
		rep.phase(p)
	}
	// The tallies above include the warm-up window; the ratios do not care.
	requests := float64(coordD.attempted + n)
	coordUS := p50(coordD.us)
	rep.series("shard.coord_us", coordD.us, coordD.phase)
	rep.value("shard.rounds_per_req", float64(rounds)/requests, coordD.phase)
	rep.value("shard.round_us", coordUS/(float64(rounds)/requests), coordD.phase)
	rep.value("shard.migration_share", float64(migrations)/float64(steps), coordD.phase)
	rep.series("shard.http_us", shardD.us, shardD.phase)
	rep.series("wire.step_rtt_us", stepD.us, stepD.phase)
	rep.value("wire.frames_per_req", float64(frames)/requests, coordD.phase)
	rep.value("wire.bytes_per_hop", float64(bytesSent)/float64(migrations), coordD.phase)
	rep.value("router.self_us", p50(routerD.us)-p50(shardD.us), routerD.phase)
	rep.value("router.resp_bytes_per_step", sized.perStep(), routerD.phase)
	rep.value("router.chain_gap_pct", gapPct(routerD.us, bareD.us), routerD.phase)
	rep.value("trace_overhead_pct", overheadPct(bareD.rates, routerD.rates), routerD.phase)
	rep.value("wire.codec_ns_per_walker", codecNS(e), nil)
	return nil
}

// codecNS times the step-request codec alone: encode a frontier of
// sampleBatch walkers and decode it again, per walker.
func codecNS(e *env) float64 {
	req := &wire.StepRequest{RequestID: "bench", Partitions: partitions, NumVertices: uint32(e.stream.V)}
	for i := 0; i < sampleBatch; i++ {
		req.Walkers = append(req.Walkers, wire.Walker{ID: uint64(i), Cur: temporal.Vertex(i), Arrival: temporal.Time(i), RNG: *xrand.New(uint64(i))})
	}
	const loops = 20000
	var frame []byte
	var back wire.StepRequest
	var perWalker []float64
	for rep := 0; rep < peelRounds; rep++ {
		t0 := time.Now()
		for i := 0; i < loops; i++ {
			frame = wire.AppendStepRequest(frame[:0], req)
			if err := wire.DecodeStepRequestInto(frame, &back); err != nil {
				e.check.failf("wire codec: %v", err)
				return 0
			}
		}
		perWalker = append(perWalker, float64(time.Since(t0).Nanoseconds())/loops/sampleBatch)
	}
	return p50(perWalker)
}

// encodeEdgeRecord is the WAL payload stream.DurableGraph logs for a batch:
// a count and 16 bytes per edge.
func encodeEdgeRecord(edges []temporal.Edge) []byte {
	buf := make([]byte, 4, 4+16*len(edges))
	binary.LittleEndian.PutUint32(buf, uint32(len(edges)))
	for _, ed := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ed.Src))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ed.Dst))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ed.Time))
	}
	return buf
}

// peelIngestWalk runs the workload at trace scale (its POST /edges is the
// outermost depth), then replays the same batches one layer down each time:
// DurableGraph.AppendBatch, then wal.Append and stream.AppendBatch apart.
func peelIngestWalk(ctx context.Context, e *env, rep *Report) error {
	e = peelEnv(e)
	out, err := ingestWalk(ctx, e, rep)
	if err != nil {
		return err
	}
	setup, _ := rep.get("setup_s")
	rep.value("stream.recovery_edges_per_s", float64(out.recoveredEdges)/setup.Value, nil)
	quiet, traced, err := ingestQuietPair(ctx, e)
	if err != nil {
		return err
	}
	rep.value("trace_overhead_pct", overheadPct(quiet, traced), nil)

	batches := make([][]temporal.Edge, peelBatches)
	for i := range batches {
		batches[i] = e.stream.Edges[i*e.batchSize() : (i+1)*e.batchSize()]
	}
	eachBatch := func(name string, fn func(i int, b []temporal.Edge) error) ([]float64, error) {
		var us []float64
		for i, b := range batches {
			span := e.rec.Begin(name, -1, i)
			t0 := time.Now()
			err := fn(i, b)
			us = append(us, float64(time.Since(t0))/1e3)
			e.rec.End(span)
			if err != nil {
				return nil, fmt.Errorf("%s batch %d: %w", name, i, err)
			}
		}
		return us, nil
	}

	dir := filepath.Join(e.dir, "peel-durable")
	d, err := stream.OpenDurable(dir, durableConfig(e))
	if err != nil {
		return err
	}
	defer d.Close()
	durableUS, err := eachBatch("stream.DurableGraph.AppendBatch", func(_ int, b []temporal.Edge) error { return d.AppendBatch(b) })
	if err != nil {
		return err
	}
	loaded := float64(d.NumEdges())
	rep.series("stream.durable_append_us", durableUS, nil)
	rep.value("ingest.decode_us", out.bulkAckP50us-p50(durableUS), nil)
	rep.value("wal.bytes_per_edge", float64(d.Log().SizeBytes())/loaded, nil)

	log, err := wal.Open(filepath.Join(e.dir, "peel-wal"), durableConfig(e).WAL)
	if err != nil {
		return err
	}
	defer log.Close()
	walUS, err := eachBatch("wal.Append", func(_ int, b []temporal.Edge) error {
		_, err := log.Append(wal.Entry{Type: wal.RecEdgeBatch, Payload: encodeEdgeRecord(b)})
		return err
	})
	if err != nil {
		return err
	}
	rep.series("wal.append_us", walUS, nil)

	g, err := stream.New(durableConfig(e).Graph)
	if err != nil {
		return err
	}
	appendUS, err := eachBatch("stream.AppendBatch", func(_ int, b []temporal.Edge) error { return g.AppendBatch(b) })
	if err != nil {
		return err
	}
	rep.series("stream.append_us", appendUS, nil)

	// Walks over what the durable depth loaded, started well behind its
	// frontier.
	var walkUS []float64
	walkSteps := 0
	reqs := e.stream.RecentRequests(e.scaled(peelWindow)*walkCount, 0, int(loaded)/2, e.seed^0x3a1c)
	for i, r := range reqs {
		span := e.rec.Begin("stream.WalkSeeded", -1, i)
		t0 := time.Now()
		verts, times := d.WalkSeeded(r.From, temporal.MinTime, walkLength, r.Seed)
		walkUS = append(walkUS, float64(time.Since(t0))/1e3)
		e.rec.End(span)
		if err := e.check.temporalPath(r.From, verts, times); err != nil {
			e.check.failf("stream walk from %d: %v", r.From, err)
		}
		walkSteps += len(times)
	}
	e.check.ran("walks_verified", len(reqs))
	rep.series("stream.walk_us", walkUS, nil)
	rep.value("stream.mean_walk_len", float64(walkSteps)/float64(len(reqs)), nil)

	snap := filepath.Join(e.dir, "peel-snapshot")
	secs, err := timed(e, "stream.WriteSnapshotFile", peelBuilds, func() (err error) {
		d.View(func(g *stream.Graph) { err = stream.WriteSnapshotFile(snap, g, d.Log().LastLSN()) })
		return err
	})
	if err != nil {
		return err
	}
	info, err := os.Stat(snap)
	if err != nil {
		return err
	}
	rep.series("stream.snapshot_s", secs, nil)
	rep.value("stream.snapshot_bytes_per_edge", float64(info.Size())/loaded, nil)
	return nil
}

// ingestQuietPair measures one walker against an idle durable server with
// and without per-request spans: the ingest workload's tracing overhead.
func ingestQuietPair(ctx context.Context, e *env) (untracedRates, tracedRates []float64, err error) {
	rig := &ingestRig{dir: filepath.Join(e.dir, "ingest-wal")} // the log the workload left
	if err := rig.up(ctx, e); err != nil {
		return nil, nil, err
	}
	defer rig.down(e)
	in := newIngester(e, &rig.addr)
	in.acked = rig.d.NumEdges()
	bare := newWalkClient(rig.addr, 1, e.check)
	defer bare.close()
	traced := newWalkClient(rig.addr, 1, e.check)
	traced.rec = e.rec
	defer traced.close()
	n := e.scaled(quietWindow)
	a, b := in.quietPhase(bare, n), in.quietPhase(traced, n)
	if err := interleave(ctx, e, a, b); err != nil {
		return nil, nil, err
	}
	return a.rates, b.rates, nil
}

// absorb folds another workload's traced report into r: the driver's traced
// run reports every layer at once. Metrics r already has are kept.
func (r *Report) absorb(o *Report) {
	for _, m := range o.Metrics {
		if _, ok := r.get(m.Name); !ok {
			r.Metrics = append(r.Metrics, m)
		}
	}
	for _, p := range o.Phases {
		p.Name = o.Workload + "/" + p.Name
		r.Phases = append(r.Phases, p)
	}
	for k, v := range o.Checks {
		r.Checks[k] += v
	}
	r.Errors = append(r.Errors, o.Errors...)
	r.Correct = r.Correct && o.Correct
}
