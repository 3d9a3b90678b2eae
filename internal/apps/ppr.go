package apps

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/par"
	"github.com/tea-graph/tea/internal/stats"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// PPRConfig parameterizes temporal personalized PageRank estimation.
type PPRConfig struct {
	// Alpha is the per-step restart probability; default 0.15.
	Alpha float64
	// Walks is the Monte Carlo sample count; default 10,000.
	Walks int
	// MaxLength caps a single walk; default 80. Temporal walks also end
	// naturally at temporal dead ends.
	MaxLength int
	// StartTime is the walker's initial arrival time; zero value means
	// temporal.MinTime (every out-edge eligible) unless HasStartTime is set.
	StartTime temporal.Time
	// HasStartTime marks StartTime as explicitly set, so a start time of
	// exactly zero is expressible on graphs with zero/negative timestamps.
	HasStartTime bool
	// Seed drives the Monte Carlo sampling.
	Seed uint64
	// Threads bounds parallel walkers; <1 selects GOMAXPROCS, the engine
	// default.
	Threads int
}

func (c *PPRConfig) normalize() {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		c.Alpha = 0.15
	}
	if c.Walks <= 0 {
		c.Walks = 10000
	}
	if c.MaxLength <= 0 {
		c.MaxLength = 80
	}
	if !c.HasStartTime && c.StartTime == 0 {
		c.StartTime = temporal.MinTime
	}
}

// PPRScore is one vertex's estimated temporal personalized PageRank mass.
type PPRScore struct {
	Vertex temporal.Vertex
	Score  float64
}

// TemporalPPR estimates personalized PageRank from source on the engine's
// temporal graph by random walks with restart: each walk steps with the
// engine's (temporally biased) transition distribution and terminates with
// probability Alpha per step; the visit distribution converges to the
// temporal PPR vector. This is the §5.2 "Personalized PageRank atop TEA"
// deployment: the engine's HPAT sampler does all the heavy lifting.
//
// Scores over all visited vertices sum to 1 and are returned sorted by
// descending score (ties by vertex id).
func TemporalPPR(eng *core.Engine, source temporal.Vertex, cfg PPRConfig) ([]PPRScore, error) {
	return TemporalPPRContext(context.Background(), eng, source, cfg)
}

// TemporalPPRContext is TemporalPPR under a context: workers check ctx
// between walks, so cancellation or a deadline aborts the estimation and
// returns ctx.Err(). A panic in user-supplied engine callbacks is recovered
// and reported as an error naming the walk instead of crashing the process.
func TemporalPPRContext(ctx context.Context, eng *core.Engine, source temporal.Vertex, cfg PPRConfig) ([]PPRScore, error) {
	cfg.normalize()
	g := eng.Graph()
	if int(source) >= g.NumVertices() {
		return nil, fmt.Errorf("apps: ppr source %d outside graph with %d vertices", source, g.NumVertices())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A disk sampler's failed read looks like a dead end to the walk; its
	// sticky error tells them apart and stops the run.
	sampler, _ := eng.Sampler().(interface{ Err() error })

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		failMu sync.Mutex
		runErr error
	)
	fail := func(err error) {
		failMu.Lock()
		if runErr == nil {
			runErr = err
		}
		failMu.Unlock()
		cancel()
	}

	// Each walk draws from root.Split(walk), so the scores do not depend on
	// which chunk, or how many, ran it. The chunks add into one shared count
	// array, so a request holds V counters at any thread count.
	root := xrand.New(cfg.Seed)
	counts := make([]atomic.Int64, g.NumVertices())
	par.For(cfg.Walks, cfg.Threads, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if runCtx.Err() != nil {
				return
			}
			err := pprWalkSafe(eng, source, cfg, i, root, counts)
			if err == nil && sampler != nil {
				err = sampler.Err()
			}
			if err != nil {
				fail(err)
				return
			}
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Every walk starts at the source: counted here, not by every chunk
	// on the same counter.
	counts[source].Add(int64(cfg.Walks))
	total := int64(0)
	for v := range counts {
		total += counts[v].Load()
	}
	var out []PPRScore
	for v := range counts {
		if c := counts[v].Load(); c > 0 {
			out = append(out, PPRScore{Vertex: temporal.Vertex(v), Score: float64(c) / float64(total)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Vertex < out[j].Vertex
	})
	return out, nil
}

// pprWalkSafe runs one walk-with-restart, converting a panic in user code
// (custom samplers, weight or parameter callbacks) into an error naming the
// walk. Each step is the engine's own (Engine.Step), so a second-order
// app's β applies exactly as in engine walks. It adds the vertices the walk
// steps to into the shared counts; the start at source is the caller's.
func pprWalkSafe(eng *core.Engine, source temporal.Vertex, cfg PPRConfig, walk int, root *xrand.Rand, counts []atomic.Int64) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("apps: ppr walk %d panicked: %v", walk, rec)
		}
	}()
	g := eng.Graph()
	r := root.Split(uint64(walk))
	u, t := source, cfg.StartTime
	var prev temporal.Vertex
	hasPrev := false
	var cost stats.Cost
	for step := 0; step < cfg.MaxLength; step++ {
		if r.Float64() < cfg.Alpha {
			break // restart: this walk's endpoint is recorded
		}
		k := g.CandidateCount(u, t)
		if k == 0 {
			break
		}
		_, dst, at, ok := eng.Step(u, k, prev, hasPrev, r, &cost)
		if !ok {
			break
		}
		prev, hasPrev = u, true
		u, t = dst, at
		counts[u].Add(1)
	}
	return nil
}
