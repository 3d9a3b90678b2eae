package ooc

import (
	"github.com/tea-graph/tea/internal/blockcache"
	"github.com/tea-graph/tea/internal/core"
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

// enableCache implements the EnableCache contract over a sampler's base
// store: the previous cache (if any) is cleared so the resident-bytes gauge
// tracks live caches only, and the returned store is what the sampler should
// read through.
func enableCache(base BlockStore, old *blockcache.CachedStore, cfg CacheConfig) (BlockStore, *blockcache.CachedStore) {
	if old != nil {
		old.Clear()
	}
	if cfg.CapacityBytes <= 0 {
		return base, nil
	}
	c := blockcache.Wrap(base, cfg)
	return c, c
}

// EnableCache implements CacheableSampler: trunk-record reads go through the
// cache, and the device counters of Store() keep reporting device traffic
// only (the cache delegates Counters/PagesRead).
func (d *DiskPAT) EnableCache(cfg CacheConfig) *blockcache.CachedStore {
	d.store, d.cache = enableCache(d.base, d.cache, cfg)
	return d.cache
}

// Cache implements CacheableSampler.
func (d *DiskPAT) Cache() *blockcache.CachedStore { return d.cache }

// EnableCache implements CacheableSampler for the full-neighbor-load
// baseline, caching whole adjacency blocks.
func (d *DiskGraphWalker) EnableCache(cfg CacheConfig) *blockcache.CachedStore {
	d.store, d.cache = enableCache(d.base, d.cache, cfg)
	return d.cache
}

// Cache implements CacheableSampler.
func (d *DiskGraphWalker) Cache() *blockcache.CachedStore { return d.cache }
