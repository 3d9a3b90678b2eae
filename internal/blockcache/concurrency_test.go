package blockcache

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// Singleflight: N concurrent readers of one uncached block must issue exactly
// one device read; the other N-1 coalesce onto it and share the payload.
func TestSingleflightCoalescing(t *testing.T) {
	const waiters = 8
	inner := newMemStore(4096)
	entered := make(chan struct{})
	release := make(chan struct{})
	var gate sync.Once
	inner.readHook = func(int64, int) error {
		gate.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}
	c := Wrap(inner, oneShard(4096))

	var wg sync.WaitGroup
	errs := make([]error, waiters)
	bufs := make([][]byte, waiters)
	wg.Add(1)
	go func() { // leader: registers the flight and blocks in the hook
		defer wg.Done()
		bufs[0] = make([]byte, 64)
		errs[0] = c.ReadAt(bufs[0], 0)
	}()
	<-entered
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bufs[i] = make([]byte, 64)
			errs[i] = c.ReadAt(bufs[i], 0)
		}(i)
	}
	// Coalesced is incremented before a waiter parks on the flight, so once it
	// reaches N-1 every follower has joined the leader's fetch.
	waitFor(t, "followers to coalesce", func() bool {
		return c.Stats().Coalesced == waiters-1
	})
	close(release)
	wg.Wait()

	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !bytes.Equal(bufs[i], inner.data[:64]) {
			t.Fatalf("reader %d got wrong bytes", i)
		}
	}
	if got := inner.reads.Load(); got != 1 {
		t.Fatalf("device reads = %d, want 1 (singleflight must dedup)", got)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Coalesced != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced", s, waiters-1)
	}
}

// An erroring fetch must propagate to every coalesced waiter and cache
// nothing; the next read retries the device.
func TestSingleflightErrorPropagation(t *testing.T) {
	const waiters = 4
	inner := newMemStore(4096)
	boom := errors.New("injected")
	entered := make(chan struct{})
	release := make(chan struct{})
	var failing atomic.Bool
	failing.Store(true)
	var gate sync.Once
	inner.readHook = func(int64, int) error {
		if !failing.Load() {
			return nil
		}
		gate.Do(func() {
			close(entered)
			<-release
		})
		return boom
	}
	c := Wrap(inner, oneShard(4096))

	var wg sync.WaitGroup
	errs := make([]error, waiters)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = c.ReadAt(make([]byte, 64), 0)
	}()
	<-entered
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.ReadAt(make([]byte, 64), 0)
		}(i)
	}
	waitFor(t, "followers to coalesce", func() bool {
		return c.Stats().Coalesced == waiters-1
	})
	close(release)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("reader %d err = %v, want the injected fault", i, err)
		}
	}
	if s := c.Stats(); s.ResidentBlocks != 0 {
		t.Fatalf("failed flight cached: %+v", s)
	}
	failing.Store(false)
	got := mustRead(t, c, 0, 64)
	if !bytes.Equal(got, inner.data[:64]) {
		t.Fatal("retry after failed flight returned wrong bytes")
	}
}

// Hammer: concurrent readers over more blocks than the budget holds, so
// hits, misses, coalesced fetches and evictions interleave. Run with -race;
// every read must return its block's bytes (block b is filled with byte b)
// and residency must stay within the budget.
func TestConcurrentReaders(t *testing.T) {
	const (
		blocks    = 8
		blockSize = 64
		readers   = 6
		rounds    = 300
	)
	inner := newMemStore(blocks * blockSize)
	for b := 0; b < blocks; b++ {
		for i := 0; i < blockSize; i++ {
			inner.data[b*blockSize+i] = byte(b)
		}
	}
	c := Wrap(inner, oneShard(3*blockSize))

	var wg sync.WaitGroup
	var bad atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			p := make([]byte, blockSize)
			for i := 0; i < rounds; i++ {
				b := (i*7 + r) % blocks
				if err := c.ReadAt(p, int64(b*blockSize)); err != nil {
					bad.Add(1)
					return
				}
				for _, v := range p {
					if v != byte(b) {
						bad.Add(1)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d readers observed wrong or failed blocks", n)
	}
	s := c.Stats()
	if s.ResidentBytes > 3*blockSize {
		t.Fatalf("resident bytes %d exceed the %d budget", s.ResidentBytes, 3*blockSize)
	}
	if s.Hits+s.Coalesced+s.Misses != readers*rounds || s.Evictions == 0 {
		t.Fatalf("stats = %+v, want %d reads with evictions", s, readers*rounds)
	}
}
