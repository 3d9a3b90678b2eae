package core

import (
	"context"
	"errors"
	"time"

	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/stats"
)

// Engine-level metric families, registered eagerly so GET /metrics shows
// them (at zero) before the first run. The walk hot path never touches
// these: workers accumulate private stats.Cost counters and merge at run
// end (see walkerState), and only the merged aggregates are published here.
var (
	mRunsStarted   = metrics.Default.Counter("tea_engine_runs_started_total")
	mRunsCompleted = metrics.Default.Counter("tea_engine_runs_completed_total")
	mRunsCancelled = metrics.Default.Counter("tea_engine_runs_cancelled_total")
	mRunsPanicked  = metrics.Default.Counter("tea_engine_runs_panicked_total")

	mWalks          = metrics.Default.Counter("tea_engine_walks_total")
	mSteps          = metrics.Default.Counter("tea_engine_steps_total")
	mEdgesEvaluated = metrics.Default.Counter("tea_engine_edges_evaluated_total")

	// Per-walk terminal classifications; the four sum to tea_engine_walks_total
	// because every started walk is classified exactly once (walk.go).
	// Cancellation is split from dead ends so a cancelled run does not
	// masquerade as a graph full of temporal dead ends.
	mWalksCompleted = metrics.Default.Counter("tea_engine_walks_completed_total")
	mWalksDeadEnded = metrics.Default.Counter("tea_engine_walks_dead_ended_total")
	mWalksCancelled = metrics.Default.Counter("tea_engine_walks_cancelled_total")
	mWalksPanicked  = metrics.Default.Counter("tea_engine_walks_panicked_total")

	mRunSeconds = metrics.Default.Histogram("tea_engine_run_seconds")

	mLastWalksPerSec = metrics.Default.Gauge("tea_engine_last_run_walks_per_second")
	mLastStepsPerSec = metrics.Default.Gauge("tea_engine_last_run_steps_per_second")
	mLastEdgesPerSec = metrics.Default.Gauge("tea_engine_last_run_edges_per_second")
)

// publishRun records one finished (or aborted) run's aggregates and bills
// its cost to the request's ledger when ctx carries one (reqcost). err
// classifies the outcome: nil is a completed run, a context error a
// cancelled one, anything else (a recovered walk panic) a panicked one.
func publishRun(ctx context.Context, cost stats.Cost, dur time.Duration, err error) {
	reqcost.From(ctx).AddEngine(cost)
	switch {
	case err == nil:
		mRunsCompleted.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		mRunsCancelled.Inc()
	default:
		mRunsPanicked.Inc()
	}
	mWalks.Add(cost.WalksStarted)
	mWalksCompleted.Add(cost.WalksCompleted)
	mWalksDeadEnded.Add(cost.WalksDeadEnded)
	mWalksCancelled.Add(cost.WalksCancelled)
	mWalksPanicked.Add(cost.WalksPanicked)
	mSteps.Add(cost.Steps)
	mEdgesEvaluated.Add(cost.EdgesEvaluated)
	mRunSeconds.Observe(dur.Seconds())
	if secs := dur.Seconds(); secs > 0 {
		mLastWalksPerSec.Set(float64(cost.WalksStarted) / secs)
		mLastStepsPerSec.Set(float64(cost.Steps) / secs)
		mLastEdgesPerSec.Set(float64(cost.EdgesEvaluated) / secs)
	}
}
