package ooc

import (
	"bytes"
	"context"
	"testing"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
)

// cacheWorkload builds a DiskPAT over a fresh store and returns it, the
// store's size, and a replay of one fixed seeded workload against the
// PAT's current cache setup that reports the device bytes and read ops it
// cost and the serialized walks it produced.
func cacheWorkload(t *testing.T) (d *DiskPAT, storeBytes int64, run func() (deviceBytes, deviceOps int64, paths []byte)) {
	t.Helper()
	g := testutil.RandomGraph(t, 60, 900, 1000, 5)
	g.PrecomputeCandidates(1)
	w := testutil.Weights(t, g, sampling.Exponential(0.01))
	store := tempStore(t)
	d, err := BuildDiskPAT(w, store, 0)
	if err != nil {
		t.Fatal(err)
	}
	storeBytes, err = store.Append(nil) // end offset == store size
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]temporal.Vertex, 4*g.NumVertices())
	for i := range starts {
		starts[i] = temporal.Vertex(i % g.NumVertices())
	}
	run = func() (deviceBytes, deviceOps int64, paths []byte) {
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
		deviceBytes, deviceOps, _, _ = store.Counters()
		return deviceBytes, deviceOps, paths
	}
	return d, storeBytes, run
}

// Byte conservation: the same seeded walks request the same bytes whether or
// not a cache sits in front of the store, so with a cache enabled
// device bytes + cache-served bytes must equal the uncached run's device
// bytes exactly, and the walks themselves must come out identical.
func TestCacheByteConservation(t *testing.T) {
	d, storeBytes, run := cacheWorkload(t)
	uncachedBytes, _, uncachedPaths := run()
	if uncachedBytes <= 0 {
		t.Fatal("uncached baseline read nothing")
	}
	cache := d.EnableCache(CacheConfig{CapacityBytes: storeBytes / 10})
	deviceBytes, _, paths := run()
	s := cache.Stats()
	if s.Hits == 0 || s.Evictions == 0 {
		t.Fatalf("cache at 10%% of the store never hit or never evicted: %+v", s)
	}
	if got := deviceBytes + s.BytesFromCache; got != uncachedBytes {
		t.Fatalf("device %d + cache-served %d = %d, want the uncached %d",
			deviceBytes, s.BytesFromCache, got, uncachedBytes)
	}
	if !bytes.Equal(paths, uncachedPaths) {
		t.Fatal("cached walks differ from uncached walks")
	}
}

// A zero cache budget means no cache: EnableCache drops the one in place and
// returns nil, the sampler and an engine built with that budget report none,
// and the device sees exactly the traffic of a run that never had a cache.
func TestZeroCacheBudgetIsNoCache(t *testing.T) {
	d, storeBytes, run := cacheWorkload(t)
	wantBytes, wantOps, wantPaths := run()
	d.EnableCache(CacheConfig{CapacityBytes: storeBytes / 10})
	if c := d.EnableCache(CacheConfig{}); c != nil {
		t.Fatalf("EnableCache(CacheConfig{}) = %p, want nil", c)
	}
	if c := d.Cache(); c != nil {
		t.Fatalf("Cache() = %p after a zero budget, want nil", c)
	}
	if e := NewEngineWithOptions(d.g, d, tempStore(t), EngineOptions{}); e.Cache() != nil {
		t.Fatal("an engine built with a zero cache budget reports a cache")
	}
	gotBytes, gotOps, gotPaths := run()
	if gotBytes != wantBytes || gotOps != wantOps {
		t.Fatalf("device traffic %d B / %d ops, want the uncached %d B / %d ops", gotBytes, gotOps, wantBytes, wantOps)
	}
	if !bytes.Equal(gotPaths, wantPaths) {
		t.Fatal("walks differ from the uncached run")
	}
}
