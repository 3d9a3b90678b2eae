// Package reqcost attributes resource consumption to individual requests.
// Where package metrics aggregates across all traffic and package stats
// accumulates per-run worker counters, this package answers "what did THIS
// request cost, across every process it touched": a Collector rides the
// request context from the HTTP layer through the engine and the shard
// coordinator, layers along the way (block fetches, walker migrations) add
// to it, and the handler snapshots it into the response's opt-in "cost"
// block, the top-K expensive-request ring (top.go), and the slow-request
// log.
//
// Discipline: the walk hot loop never touches the collector. Step and edge
// totals are folded in once at run end from the engine's stats.Cost; only
// inherently slow operations (device reads, cross-shard frames) add live,
// and those adds are single atomics against an I/O- or network-bound
// operation. A nil *Collector (accounting off) is the free path: every
// method no-ops.
package reqcost

import (
	"context"
	"sync/atomic"

	"github.com/tea-graph/tea/internal/stats"
)

// Cost is one request's resource snapshot — the JSON shape of the response
// "cost" block, /debug/tea/top entries, and the slow-request log fields.
type Cost struct {
	Steps          int64 `json:"steps"`
	EdgesEvaluated int64 `json:"edges_evaluated"`
	Walks          int64 `json:"walks,omitempty"`
	Migrations     int64 `json:"migrations,omitempty"`
	Frames         int64 `json:"frames,omitempty"`
	MigrationBytes int64 `json:"migration_bytes,omitempty"`
	CacheHits      int64 `json:"cache_hits,omitempty"`
	CacheMisses    int64 `json:"cache_misses,omitempty"`
	DeviceBytes    int64 `json:"device_bytes,omitempty"`
	ReadOps        int64 `json:"read_ops,omitempty"`
	ReadRetries    int64 `json:"read_retries,omitempty"`
	WallMicros     int64 `json:"wall_us,omitempty"`
}

// Collector accumulates one request's cost. All methods are safe for
// concurrent use (walk workers and migration goroutines add concurrently)
// and free on a nil receiver.
type Collector struct {
	steps          atomic.Int64
	edgesEvaluated atomic.Int64
	walks          atomic.Int64
	migrations     atomic.Int64
	frames         atomic.Int64
	migrationBytes atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	deviceBytes    atomic.Int64
	readOps        atomic.Int64
	readRetries    atomic.Int64
}

// AddEngine folds a finished run's aggregate cost in: steps, edges, walks,
// and the engine-side I/O retry count. Called once per run, off the hot
// path.
func (c *Collector) AddEngine(cost stats.Cost) {
	if c == nil {
		return
	}
	c.steps.Add(cost.Steps)
	c.edgesEvaluated.Add(cost.EdgesEvaluated)
	c.walks.Add(cost.WalksStarted)
	c.readRetries.Add(cost.ReadRetries)
}

// AddMigration accounts one cross-shard step frame of bytes on-wire bytes,
// whose walkers the peer served steps walker-steps (every hop, plus the
// attempt that found each dead end).
func (c *Collector) AddMigration(steps, bytes int64) {
	if c == nil {
		return
	}
	c.migrations.Add(steps)
	c.frames.Add(1)
	c.migrationBytes.Add(bytes)
}

// CacheRead accounts one block read served by the cache (hit) or the device
// behind it (miss).
func (c *Collector) CacheRead(hit bool, bytes int64) {
	if c == nil {
		return
	}
	if hit {
		c.cacheHits.Add(1)
		return
	}
	c.cacheMisses.Add(1)
	c.deviceBytes.Add(bytes)
	c.readOps.Add(1)
}

// DeviceRead accounts one uncached device read.
func (c *Collector) DeviceRead(bytes int64) {
	if c == nil {
		return
	}
	c.deviceBytes.Add(bytes)
	c.readOps.Add(1)
}

// ReadRetry accounts one device read reissued after a transient fault.
func (c *Collector) ReadRetry() {
	if c == nil {
		return
	}
	c.readRetries.Add(1)
}

// AddCost merges an externally assembled Cost (e.g. the cost ledger a shard
// returns to the router).
func (c *Collector) AddCost(cost Cost) {
	if c == nil {
		return
	}
	c.steps.Add(cost.Steps)
	c.edgesEvaluated.Add(cost.EdgesEvaluated)
	c.walks.Add(cost.Walks)
	c.migrations.Add(cost.Migrations)
	c.frames.Add(cost.Frames)
	c.migrationBytes.Add(cost.MigrationBytes)
	c.cacheHits.Add(cost.CacheHits)
	c.cacheMisses.Add(cost.CacheMisses)
	c.deviceBytes.Add(cost.DeviceBytes)
	c.readOps.Add(cost.ReadOps)
	c.readRetries.Add(cost.ReadRetries)
}

// Snapshot copies the collector's current totals.
func (c *Collector) Snapshot() Cost {
	if c == nil {
		return Cost{}
	}
	return Cost{
		Steps:          c.steps.Load(),
		EdgesEvaluated: c.edgesEvaluated.Load(),
		Walks:          c.walks.Load(),
		Migrations:     c.migrations.Load(),
		Frames:         c.frames.Load(),
		MigrationBytes: c.migrationBytes.Load(),
		CacheHits:      c.cacheHits.Load(),
		CacheMisses:    c.cacheMisses.Load(),
		DeviceBytes:    c.deviceBytes.Load(),
		ReadOps:        c.readOps.Load(),
		ReadRetries:    c.readRetries.Load(),
	}
}

// ctxKey keys the collector in a context.
type ctxKey struct{}

// Attach returns a context carrying a fresh collector. The server attaches
// one per request; everything downstream finds it via From.
func Attach(ctx context.Context) (context.Context, *Collector) {
	c := &Collector{}
	return context.WithValue(ctx, ctxKey{}, c), c
}

// From returns the context's collector, or nil when the request is not
// being accounted.
func From(ctx context.Context) *Collector {
	c, _ := ctx.Value(ctxKey{}).(*Collector)
	return c
}

// Active reports whether ctx carries a collector. Layers that must opt in
// to a context-threaded path (the scalar walk kernel resolving its
// ContextSampler) check it once up front.
func Active(ctx context.Context) bool { return From(ctx) != nil }
