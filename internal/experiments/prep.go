package experiments

import (
	"time"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/hpat"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/temporal"
)

// Fig13ScalingRow is one dataset's phase time under single- and
// multi-threaded preprocessing (Figures 13a, 13b, 13c).
type Fig13ScalingRow struct {
	Dataset      string
	SingleThread time.Duration
	MultiThread  time.Duration
	Threads      int
}

// Fig13aCandidateSearch reproduces Figure 13a: per-in-edge candidate set
// search with 1 thread versus cfg.Threads.
func Fig13aCandidateSearch(cfg Config) ([]Fig13ScalingRow, error) {
	cfg = cfg.normalized()
	var rows []Fig13ScalingRow
	for _, p := range cfg.Profiles {
		g, err := p.Build()
		if err != nil {
			return nil, err
		}
		t1 := timeIt(func() { g.PrecomputeCandidates(1) })
		tn := timeIt(func() { g.PrecomputeCandidates(cfg.Threads) })
		rows = append(rows, Fig13ScalingRow{Dataset: p.Name, SingleThread: t1, MultiThread: tn, Threads: cfg.Threads})
	}
	return rows, nil
}

// Fig13bHPATBuild reproduces Figure 13b: HPAT construction scaling.
func Fig13bHPATBuild(cfg Config) ([]Fig13ScalingRow, error) {
	cfg = cfg.normalized()
	var rows []Fig13ScalingRow
	for _, p := range cfg.Profiles {
		g, err := p.Build()
		if err != nil {
			return nil, err
		}
		w, err := sampling.BuildGraphWeights(g, sampling.Exponential(p.Lambda(cfg.Contrast)), cfg.Threads)
		if err != nil {
			return nil, err
		}
		t1 := timeIt(func() { hpat.Build(w, hpat.Config{Threads: 1, DisableAuxIndex: true}) })
		tn := timeIt(func() { hpat.Build(w, hpat.Config{Threads: cfg.Threads, DisableAuxIndex: true}) })
		rows = append(rows, Fig13ScalingRow{Dataset: p.Name, SingleThread: t1, MultiThread: tn, Threads: cfg.Threads})
	}
	return rows, nil
}

// Fig13cAuxIndex reproduces Figure 13c: auxiliary index generation scaling.
func Fig13cAuxIndex(cfg Config) ([]Fig13ScalingRow, error) {
	cfg = cfg.normalized()
	var rows []Fig13ScalingRow
	for _, p := range cfg.Profiles {
		g, err := p.Build()
		if err != nil {
			return nil, err
		}
		maxDeg := g.MaxDegree()
		t1 := timeIt(func() { hpat.BuildAuxIndex(maxDeg, 1) })
		tn := timeIt(func() { hpat.BuildAuxIndex(maxDeg, cfg.Threads) })
		rows = append(rows, Fig13ScalingRow{Dataset: p.Name, SingleThread: t1, MultiThread: tn, Threads: cfg.Threads})
	}
	return rows, nil
}

// Fig13dRow is one incremental-update measurement of Figure 13d.
type Fig13dRow struct {
	Degree      int
	BatchSize   int
	Incremental time.Duration
	Rebuild     time.Duration
	Speedup     float64
}

// Fig13dIncremental reproduces Figure 13d: appending a batch of newer edges
// to a vertex of a given degree, incrementally (segment append) versus
// rebuilding the vertex's HPAT from scratch.
func Fig13dIncremental(cfg Config, degrees []int, batches []int) ([]Fig13dRow, error) {
	cfg = cfg.normalized()
	if len(degrees) == 0 {
		degrees = []int{1, 100, 10_000, 1_000_000}
	}
	if len(batches) == 0 {
		batches = []int{100, 10_000}
	}
	var rows []Fig13dRow
	for _, b := range batches {
		for _, d := range degrees {
			inc, reb, err := incrementalVsRebuild(d, b)
			if err != nil {
				return nil, err
			}
			row := Fig13dRow{Degree: d, BatchSize: b, Incremental: inc, Rebuild: reb}
			if inc > 0 {
				row.Speedup = float64(reb) / float64(inc)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func incrementalVsRebuild(degree, batch int) (inc, reb time.Duration, err error) {
	mk := func() (*stream.Graph, error) {
		sg, err := stream.New(stream.Config{Weight: sampling.Exponential(1e-7), NumVertices: 2})
		if err != nil {
			return nil, err
		}
		if degree > 0 {
			pre := make([]temporal.Edge, degree)
			for i := range pre {
				pre[i] = temporal.Edge{Src: 0, Dst: 1, Time: temporal.Time(i + 1)}
			}
			if err := sg.AppendBatch(pre); err != nil {
				return nil, err
			}
			// Consolidate so both strategies start from one segment.
			sg.RebuildVertex(0)
		}
		return sg, nil
	}
	newBatch := func() []temporal.Edge {
		es := make([]temporal.Edge, batch)
		for i := range es {
			es[i] = temporal.Edge{Src: 0, Dst: 1, Time: temporal.Time(degree + i + 1)}
		}
		return es
	}

	// Incremental: TEA's segment append (with its LSM merges).
	sg, err := mk()
	if err != nil {
		return 0, 0, err
	}
	es := newBatch()
	inc = timeIt(func() { err = sg.AppendBatch(es) })
	if err != nil {
		return 0, 0, err
	}

	// Naive: append, then rebuild the whole vertex from scratch — the
	// baseline of Figure 13d.
	sg2, err := mk()
	if err != nil {
		return 0, 0, err
	}
	es2 := newBatch()
	reb = timeIt(func() {
		if err = sg2.AppendBatch(es2); err != nil {
			return
		}
		sg2.RebuildVertex(0)
	})
	if err != nil {
		return 0, 0, err
	}
	return inc, reb, nil
}

// Fig13eRow is one point of the preprocessing thread-scaling curve.
type Fig13eRow struct {
	Threads int
	Total   time.Duration
}

// Fig13ePreprocess reproduces Figure 13e: total preprocessing time of the
// largest configured profile across thread counts.
func Fig13ePreprocess(cfg Config, threadCounts []int) ([]Fig13eRow, error) {
	cfg = cfg.normalized()
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 2, 4, 8, 16}
	}
	p := cfg.Profiles[len(cfg.Profiles)-1]
	g, err := p.Build()
	if err != nil {
		return nil, err
	}
	app := core.ExponentialWalk(p.Lambda(cfg.Contrast))
	var rows []Fig13eRow
	for _, th := range threadCounts {
		eng, err := core.NewEngine(g, app, core.Options{Method: core.MethodHPAT, Threads: th})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig13eRow{Threads: th, Total: eng.Preprocess().Total})
	}
	return rows, nil
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}
