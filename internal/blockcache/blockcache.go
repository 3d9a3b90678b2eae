// Package blockcache puts a concurrency-safe read cache between the
// out-of-core samplers and their backing store. TEA's §4.1 protocol fetches
// one trunk record per step straight from the device; real walk traffic is
// heavily skewed toward hot, high-degree vertices, so the same trunks are
// fetched over and over. Caching them trades a bounded slice of memory for a
// large cut in device I/O — the single-machine memory-hierarchy lever that
// Kairos-style engines show temporal graph analytics lives or dies on.
//
// The cache is keyed by exact (offset, length) block coordinates, which is
// the natural unit here: the samplers always re-read a trunk (or adjacency
// block) with identical coordinates, so no range reassembly is needed.
// Entries live in power-of-two shards, each guarded by one mutex and holding
// its slice of the byte budget, so walkers on different trunks do not contend.
// Eviction is CLOCK (second chance, an S3-FIFO-style one-bit approximation of
// recency): a hit sets a reference bit instead of reordering anything, and the
// sweep clears bits until it finds a cold block. On the corpus benchmark's
// out-of-core phase it beat strict LRU on hit rate and device bytes per step.
//
// Concurrent misses on one block are deduplicated singleflight-style: the
// first walker issues the device read, later arrivals wait for it and share
// the result. A failed fetch is delivered to every waiter but never inserted,
// so transient faults (including injected ones) cannot poison the cache.
//
// The cache is read-only. Both disk samplers write their whole store before
// a cache is layered over it and never write again, so there is nothing to
// invalidate: a resident block stays the bytes on the device until Clear.
// The wrapped store keeps counting device traffic only (hits never reach
// it), so Figure-14-style experiments read their I/O volume off the store
// with the cache in place (see DESIGN.md). Cache effectiveness is reported
// separately via Stats() and the tea_blockcache_* metric families.
package blockcache

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/tea-graph/tea/internal/metrics"
)

// Store is the read side of the backing store the cache wraps; every
// ooc.BlockStore is one (this package stays import-free of ooc so ooc can
// layer the cache without a cycle).
type Store interface {
	ReadAt(p []byte, off int64) error
}

// Cache metric families, registered eagerly (like the tea_ooc_* families) so
// /metrics shows them at zero before the first cached run. The fetch-latency
// histogram is split by source: "cache" observes hit service time, "device"
// observes the full miss path including the underlying read.
var (
	mHits        = metrics.Default.Counter("tea_blockcache_hits_total")
	mMisses      = metrics.Default.Counter("tea_blockcache_misses_total")
	mCoalesced   = metrics.Default.Counter("tea_blockcache_coalesced_total")
	mEvictions   = metrics.Default.Counter("tea_blockcache_evictions_total")
	mResident    = metrics.Default.Gauge("tea_blockcache_resident_bytes")
	mCacheBytes  = metrics.Default.Counter(`tea_blockcache_served_bytes_total{source="cache"}`)
	mDeviceBytes = metrics.Default.Counter(`tea_blockcache_served_bytes_total{source="device"}`)
	mHitSeconds  = metrics.Default.Histogram(`tea_blockcache_fetch_seconds{source="cache"}`)
	mMissSeconds = metrics.Default.Histogram(`tea_blockcache_fetch_seconds{source="device"}`)
)

// Config sizes a cache.
type Config struct {
	// CapacityBytes is the total byte budget across all shards. A
	// non-positive budget caches nothing: every read goes to the store.
	CapacityBytes int64
}

// maxShards is the number of lock domains a cache starts from; small budgets
// collapse it (see Wrap).
const maxShards = 16

// key identifies one cached block by its exact read coordinates.
type key struct {
	off int64
	n   int
}

// entry is one resident block plus its CLOCK bookkeeping.
type entry struct {
	key  key
	data []byte
	ring int  // position in the shard's CLOCK ring
	ref  bool // CLOCK reference bit
}

// flight is one in-progress device fetch that later arrivals wait on.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// shard is one lock domain: a fraction of the key space and byte budget.
// Its entries sit in a CLOCK ring; hand is the sweep's position in it.
type shard struct {
	mu       sync.Mutex
	entries  map[key]*entry
	flights  map[key]*flight
	ring     []*entry
	hand     int
	bytes    int64 // resident payload bytes
	capacity int64 // this shard's slice of the budget
}

// CachedStore wraps a Store with the block cache and is itself a Store.
// All methods are safe for concurrent use.
type CachedStore struct {
	inner  Store
	shards []*shard
	mask   uint64

	hits        atomic.Int64
	misses      atomic.Int64
	coalesced   atomic.Int64
	evictions   atomic.Int64
	resident    atomic.Int64
	bytesCache  atomic.Int64 // bytes served from resident entries
	bytesDevice atomic.Int64 // bytes served by device fetches
}

// Wrap layers a cache configured by cfg over inner.
func Wrap(inner Store, cfg Config) *CachedStore {
	// Keep each shard's budget above a floor by collapsing shards for small
	// total budgets: a budget splintered into slices smaller than a block
	// caches nothing at all. A non-positive budget ends at one shard that
	// refuses every block (see insertLocked).
	const minShardBytes = 64 << 10
	n := maxShards
	per := cfg.CapacityBytes / int64(n)
	for n > 1 && per < minShardBytes {
		n >>= 1
		per = cfg.CapacityBytes / int64(n)
	}
	c := &CachedStore{inner: inner, mask: uint64(n - 1), shards: make([]*shard, n)}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries:  make(map[key]*entry),
			flights:  make(map[key]*flight),
			capacity: per,
		}
	}
	return c
}

// shardFor hashes a key onto its shard (splitmix64-style finalizer).
func (c *CachedStore) shardFor(k key) *shard {
	h := uint64(k.off)*0x9e3779b97f4a7c15 ^ uint64(k.n)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return c.shards[h&c.mask]
}

// ReadSource classifies how one ReadAt was served, for per-fetch trace
// annotations (see ReadAtSource).
type ReadSource int8

const (
	// SourceDevice: a miss — the block came from the wrapped store.
	SourceDevice ReadSource = iota
	// SourceCache: a hit on a resident block.
	SourceCache
	// SourceCoalesced: the read piggybacked on another caller's in-flight
	// device fetch of the same block.
	SourceCoalesced
)

// String renders the source the way trace annotations and tests expect.
func (s ReadSource) String() string {
	switch s {
	case SourceCache:
		return "hit"
	case SourceCoalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// ReadAt serves p from cache when resident, otherwise fetches it from the
// wrapped store (coalescing concurrent fetches of the same block) and caches
// the result. Cache hits do not touch the wrapped store, so its device
// counters and latency histograms only see real I/O.
func (c *CachedStore) ReadAt(p []byte, off int64) error {
	_, err := c.ReadAtSource(p, off)
	return err
}

// ReadAtSource is ReadAt plus the classification of how the block was
// served; the out-of-core samplers annotate their block-fetch trace spans
// with it.
func (c *CachedStore) ReadAtSource(p []byte, off int64) (ReadSource, error) {
	start := time.Now()
	k := key{off: off, n: len(p)}
	sh := c.shardFor(k)

	sh.mu.Lock()
	if e := sh.entries[k]; e != nil {
		e.ref = true
		copy(p, e.data)
		sh.mu.Unlock()
		c.hits.Add(1)
		mHits.Inc()
		c.bytesCache.Add(int64(len(p)))
		mCacheBytes.Add(int64(len(p)))
		mHitSeconds.ObserveSince(start)
		return SourceCache, nil
	}
	if f := sh.flights[k]; f != nil {
		sh.mu.Unlock()
		c.coalesced.Add(1)
		mCoalesced.Inc()
		<-f.done
		if f.err != nil {
			return SourceCoalesced, f.err
		}
		copy(p, f.data)
		c.bytesCache.Add(int64(len(p)))
		mCacheBytes.Add(int64(len(p)))
		mHitSeconds.ObserveSince(start)
		return SourceCoalesced, nil
	}
	f := &flight{done: make(chan struct{})}
	sh.flights[k] = f
	sh.mu.Unlock()

	c.misses.Add(1)
	mMisses.Inc()
	buf := make([]byte, len(p))
	err := c.inner.ReadAt(buf, off)

	sh.mu.Lock()
	delete(sh.flights, k)
	if err == nil {
		c.insertLocked(sh, k, buf)
	}
	sh.mu.Unlock()

	// Publish data/err before releasing waiters.
	if err == nil {
		f.data = buf
	}
	f.err = err
	close(f.done)

	if err != nil {
		return SourceDevice, err
	}
	copy(p, buf)
	c.bytesDevice.Add(int64(len(p)))
	mDeviceBytes.Add(int64(len(p)))
	mMissSeconds.ObserveSince(start)
	return SourceDevice, nil
}

// insertLocked adds a block to sh, evicting until it fits. Blocks larger
// than the shard's whole budget are not cached. Caller holds sh.mu.
func (c *CachedStore) insertLocked(sh *shard, k key, data []byte) {
	n := int64(len(data))
	if n > sh.capacity {
		return
	}
	for sh.bytes+n > sh.capacity {
		victim := sh.victimLocked()
		if victim == nil {
			return
		}
		c.removeLocked(sh, victim)
		c.evictions.Add(1)
		mEvictions.Inc()
	}
	// New entries start cold: a block must prove reuse before it survives a
	// sweep, which keeps one-shot scans from flushing the hot set.
	e := &entry{key: k, data: data, ring: len(sh.ring)}
	sh.entries[k] = e
	sh.ring = append(sh.ring, e)
	sh.bytes += n
	c.resident.Add(n)
	mResident.Add(float64(n))
}

// victimLocked runs the CLOCK sweep: the hand clears reference bits until it
// reaches a cold entry, which it returns without removing. At most two
// passes: the first clears every bit, the second must find a cold entry.
// Caller holds sh.mu.
func (sh *shard) victimLocked() *entry {
	for sweep := 0; sweep < 2*len(sh.ring)+1; sweep++ {
		if len(sh.ring) == 0 {
			return nil
		}
		e := sh.ring[sh.hand]
		if !e.ref {
			return e
		}
		e.ref = false
		sh.hand = (sh.hand + 1) % len(sh.ring)
	}
	return nil
}

// removeLocked drops e from sh's map, CLOCK ring and byte accounting: the
// ring's last entry takes e's slot. Caller holds sh.mu.
func (c *CachedStore) removeLocked(sh *shard, e *entry) {
	delete(sh.entries, e.key)
	last := len(sh.ring) - 1
	moved := sh.ring[last]
	sh.ring[e.ring] = moved
	moved.ring = e.ring
	sh.ring = sh.ring[:last]
	if sh.hand >= len(sh.ring) {
		sh.hand = 0
	}
	n := int64(len(e.data))
	sh.bytes -= n
	c.resident.Add(-n)
	mResident.Add(float64(-n))
}

// Stats is a point-in-time summary of cache effectiveness.
type Stats struct {
	// Hits served from resident blocks; Misses went to the device;
	// Coalesced piggybacked on another caller's in-flight fetch.
	Hits, Misses, Coalesced int64
	// Evictions counts capacity evictions.
	Evictions int64
	// ResidentBytes and ResidentBlocks describe current occupancy.
	ResidentBytes, ResidentBlocks int64
	// BytesFromCache and BytesFromDevice split served read volume by source
	// (coalesced waiters count toward the cache side: their bytes were
	// served without an extra device read).
	BytesFromCache, BytesFromDevice int64
}

// Stats reports the cache's accumulated statistics.
func (c *CachedStore) Stats() Stats {
	s := Stats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Coalesced:       c.coalesced.Load(),
		Evictions:       c.evictions.Load(),
		ResidentBytes:   c.resident.Load(),
		BytesFromCache:  c.bytesCache.Load(),
		BytesFromDevice: c.bytesDevice.Load(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.ResidentBlocks += int64(len(sh.entries))
		sh.mu.Unlock()
	}
	return s
}

// Clear drops every resident block (returning their bytes to the global
// resident gauge) without touching the accumulated counters. Callers that
// retire a cache should Clear it so the gauge reflects live caches only.
func (c *CachedStore) Clear() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			c.removeLocked(sh, e)
		}
		sh.mu.Unlock()
	}
}
