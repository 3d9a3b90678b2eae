package ooc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tea-graph/tea/internal/blockcache"
	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/reqcost"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/trace"
)

// CacheConfig is the block-cache configuration accepted by the disk samplers
// and EngineOptions (an alias of blockcache.Config so callers can stay in
// this package).
type CacheConfig = blockcache.Config

// CacheableSampler is a core.Sampler whose backing store can be wrapped with a
// block cache after construction.
type CacheableSampler interface {
	core.Sampler
	// EnableCache layers a block cache (per cfg) over the sampler's original
	// store, replacing any previously enabled cache. A non-positive capacity
	// removes caching. Returns the active cache, or nil when disabled. Not
	// safe to call concurrently with Sample.
	EnableCache(cfg CacheConfig) *blockcache.CachedStore
	// Cache returns the active cache, or nil.
	Cache() *blockcache.CachedStore
}

// RetryPolicy bounds the retry-with-backoff loop wrapped around transient
// block reads: up to MaxRetries reissues after the first attempt, sleeping
// BaseDelay, 2·BaseDelay, 4·BaseDelay, ... between them.
type RetryPolicy struct {
	MaxRetries int
	BaseDelay  time.Duration
}

// DefaultRetryPolicy absorbs sporadic device glitches (at a 1% transient
// fault rate, five retries drive the per-read failure probability to 1e-12)
// while a genuinely dead device still fails in under ~3ms.
var DefaultRetryPolicy = RetryPolicy{MaxRetries: 5, BaseDelay: 100 * time.Microsecond}

// readPath is the one read path both disk samplers embed: the store the
// sampler was built onto, the block cache layered over it when enabled, the
// transient-fault retry policy, and the sampler's sticky first error.
type readPath struct {
	base  BlockStore
	cache *blockcache.CachedStore
	retry RetryPolicy

	retries atomic.Int64 // reads reissued after transient faults

	errMu    sync.Mutex
	firstErr error // first unrecoverable read failure (sticky)
}

// EnableCache implements CacheableSampler. The previous cache (if any) is
// cleared so the resident-bytes gauge tracks live caches only. Reads then go
// through the new cache; the backing store's counters keep reporting device
// traffic only.
func (p *readPath) EnableCache(cfg CacheConfig) *blockcache.CachedStore {
	if p.cache != nil {
		p.cache.Clear()
		p.cache = nil
	}
	if cfg.CapacityBytes > 0 {
		p.cache = blockcache.Wrap(p.base, cfg)
	}
	return p.cache
}

// Cache implements CacheableSampler.
func (p *readPath) Cache() *blockcache.CachedStore { return p.cache }

// SetRetryPolicy replaces the transient-read retry policy. Not safe to call
// concurrently with Sample.
func (p *readPath) SetRetryPolicy(r RetryPolicy) { p.retry = r }

// Retries reports how many reads were reissued after transient faults.
func (p *readPath) Retries() int64 { return p.retries.Load() }

// Err returns the first unrecoverable read failure, or nil. The Sampler
// contract can only signal "no candidate"; Err is how the engine tells a
// dead-ended walk from a dead device.
func (p *readPath) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}

// blockMemo is the batched path's one-entry read-through memo, keyed by
// store offset (each offset starts one block in both samplers' layouts).
// Within one SampleBatch call, consecutive draws that need the block at the
// same offset reuse the bytes already fetched: with the frontier sorted by
// vertex (the kernel sorts it because WantsGroupedFrontier reports true)
// one device read serves a whole run of same-vertex walkers, rather than
// relying on blockcache singleflight timing luck. The memo affects I/O
// only: every draw consumes its random stream and counts evaluated edges
// exactly as the scalar path does.
type blockMemo struct {
	off   int64
	valid bool
}

// drawScratch is a draw's working space: the fetch buffer, the GraphWalker
// sampler's candidate weights, and the memo over the buffer, which only the
// batched path consults. Both paths take theirs from scratchPool, so a warm
// draw allocates nothing; a scalar draw passes no memo to fetch, so every
// one of its fetches still issues its read.
type drawScratch struct {
	memo blockMemo
	buf  []byte
	w    []float64
}

var scratchPool = sync.Pool{New: func() any { return new(drawScratch) }}

// getScratch takes a scratch from the pool with its memo emptied; return it
// with scratchPool.Put.
func getScratch() *drawScratch {
	s := scratchPool.Get().(*drawScratch)
	s.memo.valid = false
	return s
}

// buffer returns an n-byte fetch buffer: the scratch's own, reallocated
// (and so emptied of any memoized block) when too small.
func (s *drawScratch) buffer(n int) []byte {
	if cap(s.buf) < n {
		s.buf, s.memo.valid = make([]byte, n), false
	}
	return s.buf[:n]
}

// weights returns an n-entry weight buffer.
func (s *drawScratch) weights(n int) []float64 {
	if cap(s.w) < n {
		s.w = make([]float64, n)
	}
	return s.w[:n]
}

// fetch fills buf with the block at off, the one fetch of both disk
// samplers. With a memo (buf must then be the buffer of the memo's
// scratch), a repeat of the memo's offset is served from buf without a
// read. Otherwise the read goes through the cache when one is enabled,
// bills reqcost as a device or cache read, and is reissued with backoff
// while it fails with ErrTransient, up to the retry policy. u and trunk name
// the block in errors and trace spans; a negative trunk marks a whole
// adjacency block.
//
// When ctx carries an active trace span, the fetch is wrapped in an
// "ooc.block_fetch" span annotated with the block coordinates, the cache
// source (hit/miss/coalesced) when a cache is enabled, and the retry count;
// each retry also drops a KindRetry event into the flight recorder.
// Untraced runs skip all of it on the nil-span fast path.
//
// Cancellation is not a device fault: a fetch requested after ctx is
// cancelled fails at once, the retry loop stops backing off the moment ctx
// dies, and neither case is recorded as the sticky first error — the next
// run on this sampler starts clean. Any other failure is.
func (p *readPath) fetch(ctx context.Context, memo *blockMemo, buf []byte, off int64, u temporal.Vertex, trunk int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if memo != nil {
		if memo.valid && memo.off == off {
			mBatchCoalesced.Inc()
			return nil
		}
		memo.valid = false
	}
	sp := trace.StartSpan(ctx, "ooc.block_fetch")
	rc := reqcost.From(ctx)
	retries := 0
	src, err := p.read(rc, buf, off)
	for attempt := 0; errors.Is(err, ErrTransient) && ctx.Err() == nil && attempt < p.retry.MaxRetries; attempt++ {
		p.retries.Add(1)
		mRetries.Inc()
		rc.ReadRetry()
		retries++
		if sp != nil {
			trace.EventCtx(ctx, trace.KindRetry, "ooc.block_retry",
				trace.Int("vertex", int64(u)), trace.Int("trunk", int64(trunk)), trace.Int("attempt", int64(attempt+1)))
		}
		if p.retry.BaseDelay > 0 {
			time.Sleep(p.retry.BaseDelay << attempt)
		}
		src, err = p.read(rc, buf, off)
	}
	if err != nil {
		if trunk < 0 {
			err = fmt.Errorf("ooc: adjacency read for vertex %d failed: %w", u, err)
		} else {
			err = fmt.Errorf("ooc: trunk read for vertex %d trunk %d failed: %w", u, trunk, err)
		}
		if ctx.Err() == nil {
			p.errMu.Lock()
			if p.firstErr == nil {
				p.firstErr = err
			}
			p.errMu.Unlock()
		}
	} else if memo != nil {
		memo.off, memo.valid = off, true
	}
	if sp != nil {
		sp.SetInt("vertex", int64(u))
		if trunk >= 0 {
			sp.SetInt("trunk", int64(trunk))
		}
		sp.SetInt("bytes", int64(len(buf)))
		if src != "" {
			sp.SetStr("source", src)
		}
		if retries > 0 {
			sp.SetInt("retries", int64(retries))
		}
		sp.SetError(err)
		sp.End()
	}
	return err
}

// read fills buf from off once and bills rc: through the cache, as a hit or
// a miss, when one is enabled, else as a device read. source is how the
// cache served the read, or "" when there is no cache, so a block-fetch span
// carries a source exactly when a cache is enabled.
func (p *readPath) read(rc *reqcost.Collector, buf []byte, off int64) (source string, err error) {
	if p.cache == nil {
		if err = p.base.ReadAt(buf, off); err == nil {
			rc.DeviceRead(int64(len(buf)))
		}
		return "", err
	}
	src, err := p.cache.ReadAtSource(buf, off)
	if err == nil {
		rc.CacheRead(src != blockcache.SourceDevice, int64(len(buf)))
	}
	return src.String(), err
}
