package apps

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/temporal"
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

// TemporalPPRContext is TemporalPPR under a context. The walks are one
// engine run with restart (core.Engine.RunRestart), so cancellation returns
// ctx.Err() and a panic in user-supplied engine callbacks is an error naming
// the walk, as in every engine run.
func TemporalPPRContext(ctx context.Context, eng *core.Engine, source temporal.Vertex, cfg PPRConfig) ([]PPRScore, error) {
	cfg.normalize()
	g := eng.Graph()
	if int(source) >= g.NumVertices() {
		return nil, fmt.Errorf("apps: ppr source %d outside graph with %d vertices", source, g.NumVertices())
	}
	// Each walk draws from its own split of the seed, so the scores do not
	// depend on which worker, or how many, ran it. The workers add into one
	// shared count array, so a request holds V counters at any thread count.
	counts := make([]atomic.Int64, g.NumVertices())
	res, err := eng.RunRestart(ctx, core.WalkConfig{
		StartVertices:  []temporal.Vertex{source},
		WalksPerVertex: cfg.Walks,
		Length:         cfg.MaxLength,
		StartTime:      cfg.StartTime,
		HasStartTime:   true,
		Seed:           cfg.Seed,
		Threads:        cfg.Threads,
		Visitor: func(_, _ int, _, to temporal.Vertex, _ temporal.Time) {
			counts[to].Add(1)
		},
	}, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	// Every walk starts at the source: counted here, not by every walk on
	// the same counter. Each step counts one vertex, so the counts sum to
	// Walks + Steps.
	counts[source].Add(int64(cfg.Walks))
	total := float64(int64(cfg.Walks) + res.Cost.Steps)
	var out []PPRScore
	for v := range counts {
		if c := counts[v].Load(); c > 0 {
			out = append(out, PPRScore{Vertex: temporal.Vertex(v), Score: float64(c) / total})
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
