package ooc

import (
	"testing"

	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/testutil"
)

// The cache must compose with fault injection without masking or caching
// faults: a run over cache-on-injector with transient faults retried must
// produce exactly the walk statistics of an uncached, fault-free run, and a
// fetch that ultimately fails must never leave an entry resident.
func TestCacheOverFaultInjectorTransparent(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 1000, 5)
	g.PrecomputeCandidates(1)
	w := testutil.Weights(t, g, sampling.Exponential(0.01))

	clean, err := BuildDiskPAT(w, tempStore(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	resClean, err := NewEngine(g, clean, nil).Run(2, 30, 42)
	if err != nil {
		t.Fatal(err)
	}

	fi := NewFaultInjector(tempStore(t), fault.New(7, fault.Fault{Op: fault.Read, Rate: 0.02, Err: ErrTransient}))
	d, err := BuildDiskPAT(w, fi, 4)
	if err != nil {
		t.Fatal(err)
	}
	cache := d.EnableCache(CacheConfig{CapacityBytes: 1 << 20})
	resCached, err := NewEngine(g, d, nil).Run(2, 30, 42)
	if err != nil {
		t.Fatalf("run with cache over faulty store failed: %v", err)
	}

	if fi.Injected() == 0 {
		t.Fatal("injector never fired; the test exercised nothing")
	}
	c, f := resClean.Cost, resCached.Cost
	if c.Steps != f.Steps || c.EdgesEvaluated != f.EdgesEvaluated ||
		c.WalksStarted != f.WalksStarted || c.WalksCompleted != f.WalksCompleted ||
		c.WalksDeadEnded != f.WalksDeadEnded {
		t.Fatalf("cached faulty run diverged from clean run:\nclean:  %+v\ncached: %+v", c, f)
	}
	s := cache.Stats()
	if s.Hits == 0 {
		t.Fatal("cache never hit; composition test exercised nothing")
	}
}

// A permanently failing store must leave the cache empty: the failed fetch
// is delivered as an error, never inserted, so the cache cannot serve (or
// hide) a fault.
func TestCacheNeverPoisonedByFaults(t *testing.T) {
	g := testutil.RandomGraph(t, 300, 9000, 1000, 5)
	g.PrecomputeCandidates(1)
	w := testutil.Weights(t, g, sampling.WeightSpec{})

	// The build only writes, so it succeeds over an injector that fails
	// every read; the cache then layers on top of the faulty store.
	fi := NewFaultInjector(tempStore(t), fault.New(3, fault.Fault{Op: fault.Read}))
	d, err := BuildDiskPAT(w, fi, 4)
	if err != nil {
		t.Fatal(err)
	}
	cache := d.EnableCache(CacheConfig{CapacityBytes: 1 << 20})

	if _, err := NewEngine(g, d, nil).Run(1, 10, 1); err == nil {
		t.Fatal("permanent fault did not surface through the cache")
	}
	if s := cache.Stats(); s.ResidentBlocks != 0 || s.ResidentBytes != 0 {
		t.Fatalf("failed fetches were cached: %+v", s)
	}
}
