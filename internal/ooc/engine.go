package ooc

import (
	"context"
	"errors"
	"time"

	"github.com/tea-graph/tea/internal/blockcache"
	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/stats"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/walkio"
)

// ErrCustomWeight mirrors the baseline restriction for the on-disk engines.
var ErrCustomWeight = errors.New("ooc: custom weight functions are not supported out of core")

// WalkFlushThreshold is the number of completed walks buffered before they
// are flushed to disk, matching GraphWalker's policy that TEA adopts (§4.1:
// "we flush the completed ones to disk when the number of them reaches
// 1,024").
const WalkFlushThreshold = 1024

// Engine drives temporal walks whose sampling structure lives on disk. It is
// core's walk loop over the disk-backed sampler — one thread, the scalar
// kernel, walk ids in order, so device reads happen in walk order — plus a
// sink that flushes completed walks to the output store in groups of
// WalkFlushThreshold, as internal/walkio walk records.
type Engine struct {
	eng   *core.Engine
	out   BlockStore
	cache *blockcache.CachedStore
}

// NewEngine wires a disk-backed sampler to a walk output store. out may be
// nil, in which case completed walks are discarded (cost accounting only) and
// no paths are built.
func NewEngine(g *temporal.Graph, sampler core.Sampler, out BlockStore) *Engine {
	eng, err := core.NewEngine(g, core.App{Name: sampler.Name()}, core.Options{
		ExternalSampler:         sampler,
		SkipCandidatePrecompute: true,
	})
	if err != nil {
		panic(err) // unreachable: an App without a dynamic parameter always validates
	}
	return &Engine{eng: eng, out: out}
}

// EngineOptions configures optional engine behavior; the zero value matches
// NewEngine.
type EngineOptions struct {
	// Cache, when its capacity is positive and the sampler supports it,
	// layers a block cache between the sampler and its store.
	Cache CacheConfig
}

// NewEngineWithOptions is NewEngine plus options: a positive cache capacity
// is applied to samplers implementing CacheableSampler (DiskPAT,
// DiskGraphWalker) and the resulting cache is reachable via Cache().
func NewEngineWithOptions(g *temporal.Graph, sampler core.Sampler, out BlockStore, opts EngineOptions) *Engine {
	e := NewEngine(g, sampler, out)
	if opts.Cache.CapacityBytes > 0 {
		if cs, ok := sampler.(CacheableSampler); ok {
			e.cache = cs.EnableCache(opts.Cache)
		}
	}
	return e
}

// Cache returns the block cache enabled via NewEngineWithOptions, or nil.
func (e *Engine) Cache() *blockcache.CachedStore { return e.cache }

// Result reports an out-of-core run.
type Result struct {
	Cost     stats.Cost
	Duration time.Duration
	Flushes  int
}

// Run walks length steps from every vertex (walksPerVertex copies each) and
// returns merged costs.
func (e *Engine) Run(walksPerVertex, length int, seed uint64) (*Result, error) {
	return e.RunContext(context.Background(), walksPerVertex, length, seed)
}

// RunContext is Run with core's cancellation and fault surfacing: the run
// stops between walks, or within 1,024 steps inside one, when ctx is done
// (returning the partial Result with ctx.Err()), and when the sampler reports
// an unrecoverable read failure via its Err method the run stops after that
// walk with the error instead of dead-ending every remaining walk. Walks run
// sequentially per the out-of-core model, where the device, not the CPU, is
// the bottleneck; the sampler's store accumulates the I/O counters.
func (e *Engine) RunContext(ctx context.Context, walksPerVertex, length int, seed uint64) (*Result, error) {
	return e.run(ctx, core.WalkConfig{WalksPerVertex: walksPerVertex, Length: length, Seed: seed})
}

// RunStarts is RunContext over an explicit workload: one walk per element of
// starts, in order. This is how skewed (e.g. Zipfian) traffic is replayed
// against the disk samplers — the per-walk RNG split and flush policy match
// RunContext exactly, so results are comparable.
func (e *Engine) RunStarts(ctx context.Context, starts []temporal.Vertex, length int, seed uint64) (*Result, error) {
	if starts == nil {
		starts = []temporal.Vertex{} // nil would mean every vertex to core
	}
	return e.run(ctx, core.WalkConfig{StartVertices: starts, Length: length, Seed: seed})
}

// run executes cfg on the core engine with the flush sink attached and bills
// the sampler's read retries during the run to its cost.
func (e *Engine) run(ctx context.Context, cfg core.WalkConfig) (*Result, error) {
	start := time.Now()
	res := &Result{}
	cfg.Threads = 1
	cfg.Kernel = core.KernelScalar
	var buffer []core.Path
	var rec []byte
	flush := func() error {
		if len(buffer) == 0 {
			return nil
		}
		rec = rec[:0]
		for _, p := range buffer {
			var err error
			if rec, err = walkio.AppendWalk(rec, p); err != nil {
				return err
			}
		}
		if _, err := e.out.Append(rec); err != nil {
			return err
		}
		res.Flushes++
		buffer = buffer[:0]
		return nil
	}
	if e.out != nil {
		buffer = make([]core.Path, 0, WalkFlushThreshold)
		cfg.Sink = func(_ int, p core.Path) error {
			buffer = append(buffer, p)
			if len(buffer) < WalkFlushThreshold {
				return nil
			}
			return flush()
		}
	}
	retries, _ := e.eng.Sampler().(interface{ Retries() int64 })
	var retriesBefore int64
	if retries != nil {
		retriesBefore = retries.Retries()
	}
	cr, err := e.eng.RunContext(ctx, cfg)
	if err == nil {
		err = flush()
	}
	if cr != nil {
		res.Cost = cr.Cost
	}
	if retries != nil {
		res.Cost.ReadRetries = retries.Retries() - retriesBefore
	}
	res.Duration = time.Since(start)
	return res, err
}
