package ooc

import (
	"bytes"
	"context"
	"testing"

	"github.com/tea-graph/tea/internal/blockcache"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
)

// Byte conservation: the same seeded walks request the same bytes whether or
// not a cache sits in front of the store, so with a cache enabled
// device bytes + cache-served bytes must equal the uncached run's device
// bytes exactly, under either eviction policy, and the walks themselves must
// come out identical.
func TestCacheByteConservation(t *testing.T) {
	g := testutil.RandomGraph(t, 60, 900, 1000, 5)
	g.PrecomputeCandidates(1)
	w := testutil.Weights(t, g, sampling.Exponential(0.01))
	store := tempStore(t)
	d, err := BuildDiskPAT(w, store, 0)
	if err != nil {
		t.Fatal(err)
	}
	storeBytes, err := store.Append(nil) // end offset == store size
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]temporal.Vertex, 4*g.NumVertices())
	for i := range starts {
		starts[i] = temporal.Vertex(i % g.NumVertices())
	}

	// run replays the workload against d's current cache setup and returns
	// the device bytes it read and the serialized walks it produced.
	run := func() (deviceBytes int64, paths []byte) {
		t.Helper()
		store.ResetCounters()
		out := tempStore(t)
		if _, err := NewEngine(g, d, out).RunStarts(context.Background(), starts, 20, 1); err != nil {
			t.Fatal(err)
		}
		end, err := out.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		paths = make([]byte, end)
		if err := out.ReadAt(paths, 0); err != nil {
			t.Fatal(err)
		}
		deviceBytes, _, _, _ = store.Counters()
		return deviceBytes, paths
	}

	uncachedBytes, uncachedPaths := run()
	if uncachedBytes <= 0 {
		t.Fatal("uncached baseline read nothing")
	}
	for _, policy := range []blockcache.Policy{blockcache.PolicyLRU, blockcache.PolicyClock} {
		cache := d.EnableCache(CacheConfig{CapacityBytes: storeBytes / 10, Policy: policy})
		deviceBytes, paths := run()
		s := cache.Stats()
		if s.Hits == 0 || s.Evictions == 0 {
			t.Fatalf("%s: cache at 10%% of the store never hit or never evicted: %+v", policy, s)
		}
		if got := deviceBytes + s.BytesFromCache; got != uncachedBytes {
			t.Fatalf("%s: device %d + cache-served %d = %d, want the uncached %d",
				policy, deviceBytes, s.BytesFromCache, got, uncachedBytes)
		}
		if !bytes.Equal(paths, uncachedPaths) {
			t.Fatalf("%s: cached walks differ from uncached walks", policy)
		}
	}
}
