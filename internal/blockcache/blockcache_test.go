package blockcache

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// memStore is an in-memory Store with a read count and an optional
// read-path hook for fault and blocking behavior. Its bytes are set before
// the first read and never change.
type memStore struct {
	data  []byte
	reads atomic.Int64

	// readHook, when non-nil, runs before each read and may return an
	// error to fail the read.
	readHook func(off int64, n int) error
}

func newMemStore(size int) *memStore {
	m := &memStore{data: make([]byte, size)}
	for i := range m.data {
		m.data[i] = byte(i)
	}
	return m
}

func (m *memStore) ReadAt(p []byte, off int64) error {
	if m.readHook != nil {
		if err := m.readHook(off, len(p)); err != nil {
			return err
		}
	}
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return fmt.Errorf("memstore: read [%d, %d) out of range", off, off+int64(len(p)))
	}
	copy(p, m.data[off:])
	m.reads.Add(1)
	return nil
}

// oneShard returns a config whose budget is small enough to collapse to a
// single shard, so eviction order is deterministic in tests.
func oneShard(capacity int64) Config {
	return Config{CapacityBytes: capacity}
}

func mustRead(t *testing.T, s *CachedStore, off int64, n int) []byte {
	t.Helper()
	p := make([]byte, n)
	if err := s.ReadAt(p, off); err != nil {
		t.Fatalf("ReadAt(%d, %d): %v", off, n, err)
	}
	return p
}

func TestHitServesCachedBytes(t *testing.T) {
	inner := newMemStore(4096)
	c := Wrap(inner, oneShard(1024))
	first := mustRead(t, c, 100, 64)
	second := mustRead(t, c, 100, 64)
	if !bytes.Equal(first, second) {
		t.Fatal("hit returned different bytes than the miss")
	}
	want := inner.data[100:164]
	if !bytes.Equal(first, want) {
		t.Fatal("cached read returned wrong bytes")
	}
	if got := inner.reads.Load(); got != 1 {
		t.Fatalf("device reads = %d, want 1 (second read must be a hit)", got)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
	if s.ResidentBytes != 64 || s.ResidentBlocks != 1 {
		t.Fatalf("resident = %d bytes / %d blocks, want 64 / 1", s.ResidentBytes, s.ResidentBlocks)
	}
	if s.BytesFromCache != 64 || s.BytesFromDevice != 64 {
		t.Fatalf("served split = %d cache / %d device, want 64 / 64", s.BytesFromCache, s.BytesFromDevice)
	}
}

// Capacity boundary: with room for exactly two 64-byte blocks, a third
// insert must evict, and the victim is the block not touched since it was
// cached.
func TestCapacityBoundaryEviction(t *testing.T) {
	inner := newMemStore(4096)
	c := Wrap(inner, oneShard(128))
	mustRead(t, c, 0, 64)   // A
	mustRead(t, c, 64, 64)  // B
	mustRead(t, c, 0, 64)   // touch A: B is the cold one
	mustRead(t, c, 128, 64) // C: evicts B
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if s.ResidentBytes != 128 {
		t.Fatalf("resident bytes = %d, want exactly the 128 budget", s.ResidentBytes)
	}
	devBefore := inner.reads.Load()
	mustRead(t, c, 0, 64) // A must still be resident
	if inner.reads.Load() != devBefore {
		t.Fatal("A was evicted; the sweep should have evicted B")
	}
	mustRead(t, c, 64, 64) // B must be gone
	if inner.reads.Load() != devBefore+1 {
		t.Fatal("B unexpectedly still resident")
	}
}

// CLOCK second chance: a touched block survives the sweep, a cold one is
// evicted.
func TestClockSecondChance(t *testing.T) {
	inner := newMemStore(4096)
	c := Wrap(inner, oneShard(128))
	mustRead(t, c, 0, 64)   // A (cold)
	mustRead(t, c, 64, 64)  // B (cold)
	mustRead(t, c, 0, 64)   // touch A: ref bit set
	mustRead(t, c, 128, 64) // C: sweep clears A's bit, evicts cold B
	devBefore := inner.reads.Load()
	mustRead(t, c, 0, 64) // A survived its second chance
	if inner.reads.Load() != devBefore {
		t.Fatal("A was evicted despite its reference bit")
	}
	mustRead(t, c, 64, 64) // B was the victim
	if inner.reads.Load() != devBefore+1 {
		t.Fatal("B unexpectedly still resident")
	}
}

// A block larger than the whole budget must be served but never cached.
func TestOversizedBlockNotCached(t *testing.T) {
	inner := newMemStore(4096)
	c := Wrap(inner, oneShard(128))
	mustRead(t, c, 0, 256)
	if s := c.Stats(); s.ResidentBytes != 0 {
		t.Fatalf("oversized block resident: %+v", s)
	}
	mustRead(t, c, 0, 256)
	if got := inner.reads.Load(); got != 2 {
		t.Fatalf("device reads = %d, want 2 (oversized blocks are never cached)", got)
	}
}

// A zero budget builds a cache that holds nothing: every read is served by
// the device and nothing becomes resident.
func TestZeroBudgetCachesNothing(t *testing.T) {
	inner := newMemStore(4096)
	c := Wrap(inner, Config{CapacityBytes: 0})
	for i := 0; i < 3; i++ {
		if got := mustRead(t, c, 32, 64); !bytes.Equal(got, inner.data[32:96]) {
			t.Fatal("read returned wrong bytes")
		}
	}
	if got := inner.reads.Load(); got != 3 {
		t.Fatalf("device reads = %d, want 3 (nothing cached at zero budget)", got)
	}
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 3 || s.ResidentBytes != 0 || s.ResidentBlocks != 0 || s.BytesFromDevice != 3*64 {
		t.Fatalf("zero-budget stats = %+v", s)
	}
}

// A failed fetch must propagate the error and never leave an entry behind
// (fault-injection composes without poisoning the cache).
func TestFailedFetchNotCached(t *testing.T) {
	inner := newMemStore(4096)
	boom := errors.New("injected")
	fail := true
	inner.readHook = func(int64, int) error {
		if fail {
			return boom
		}
		return nil
	}
	c := Wrap(inner, oneShard(1024))
	p := make([]byte, 64)
	if err := c.ReadAt(p, 0); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if s := c.Stats(); s.ResidentBlocks != 0 || s.ResidentBytes != 0 {
		t.Fatalf("failed fetch left residue: %+v", s)
	}
	fail = false
	got := mustRead(t, c, 0, 64)
	if !bytes.Equal(got, inner.data[:64]) {
		t.Fatal("recovered read returned wrong bytes")
	}
	if s := c.Stats(); s.ResidentBlocks != 1 {
		t.Fatalf("recovered read not cached: %+v", s)
	}
}

func TestClearReleasesResidency(t *testing.T) {
	inner := newMemStore(4096)
	c := Wrap(inner, oneShard(1024))
	mustRead(t, c, 0, 64)
	mustRead(t, c, 64, 64)
	c.Clear()
	if s := c.Stats(); s.ResidentBytes != 0 || s.ResidentBlocks != 0 {
		t.Fatalf("after Clear: %+v", s)
	}
	mustRead(t, c, 0, 64) // cache still functional after Clear
	if s := c.Stats(); s.ResidentBlocks != 1 {
		t.Fatalf("cache dead after Clear: %+v", s)
	}
}

func TestTinyBudgetCollapsesShards(t *testing.T) {
	inner := newMemStore(4096)
	c := Wrap(inner, Config{CapacityBytes: 500})
	if got := len(c.shards); got != 1 {
		t.Fatalf("shards = %d, want 1 (500-byte budget must not splinter)", got)
	}
	mustRead(t, c, 0, 200)
	if s := c.Stats(); s.ResidentBlocks != 1 {
		t.Fatalf("tiny cache holds nothing: %+v", s)
	}
}
