package ooc

import (
	"github.com/tea-graph/tea/internal/blockcache"
	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/reqcost"
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

// readPath is the read side both disk samplers embed: the store the sampler
// was built onto and, when enabled, the block cache layered over it.
type readPath struct {
	base  BlockStore
	cache *blockcache.CachedStore
}

// EnableCache implements CacheableSampler. The previous cache (if any) is
// cleared so the resident-bytes gauge tracks live caches only. Reads then go
// through the new cache, and the device counters of Store() keep reporting
// device traffic only (the cache delegates Counters/PagesRead).
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

// Store returns the store reads go through: the cache when one is enabled,
// else the backing store (for I/O accounting either way).
func (p *readPath) Store() BlockStore {
	if p.cache != nil {
		return p.cache
	}
	return p.base
}

// read fills buf from off and bills rc: through the cache, as a hit or a
// miss, when one is enabled, else as a device read. source is how the cache
// served the read, or "" when there is no cache, so a block-fetch span
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
