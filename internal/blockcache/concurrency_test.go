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

// A write overlapping an in-flight fetch must mark it stale: waiters still
// get a payload, but it is never inserted, so no reader can later hit
// pre-write data.
func TestInFlightFetchMarkedStaleByWrite(t *testing.T) {
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
	wg.Add(1)
	var readErr error
	go func() {
		defer wg.Done()
		readErr = c.ReadAt(make([]byte, 64), 0)
	}()
	<-entered
	if err := c.WriteAt(bytes.Repeat([]byte{0xEE}, 16), 32); err != nil {
		t.Fatal(err)
	}
	close(release)
	wg.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if s := c.Stats(); s.ResidentBlocks != 0 {
		t.Fatalf("stale flight was cached: %+v", s)
	}
	// The next read must fetch fresh (post-write) bytes from the device.
	got := mustRead(t, c, 0, 64)
	if !bytes.Equal(got[32:48], bytes.Repeat([]byte{0xEE}, 16)) {
		t.Fatal("re-read did not observe the write")
	}
}

// parkAfterCopy is a store whose first read copies its bytes and then parks
// until released, so a fetch can hold pre-write bytes while a write lands.
type parkAfterCopy struct {
	*memStore
	first   atomic.Bool // set by the read that parks
	parked  chan struct{}
	release chan struct{}
}

func (s *parkAfterCopy) ReadAt(p []byte, off int64) error {
	err := s.memStore.ReadAt(p, off)
	if s.first.CompareAndSwap(false, true) {
		close(s.parked)
		<-s.release
	}
	return err
}

// A read issued after WriteAt returns must see the written bytes, even while
// a fetch that copied the pre-write bytes is still in flight: the write
// retires that fetch, so the later read starts its own instead of joining it.
// The retired fetch still answers its own reader and is never inserted.
func TestReadAfterWriteSkipsStaleFlight(t *testing.T) {
	inner := &parkAfterCopy{memStore: newMemStore(4096), parked: make(chan struct{}), release: make(chan struct{})}
	c := Wrap(inner, oneShard(4096))
	old := append([]byte(nil), inner.data[:64]...)
	fresh := bytes.Repeat([]byte{0xAB}, 64)
	releaseA := sync.OnceFunc(func() { close(inner.release) })
	defer releaseA()

	a := make([]byte, 64)
	aDone := make(chan error, 1)
	go func() { aDone <- c.ReadAt(a, 0) }()
	<-inner.parked // A missed and holds the old bytes
	if err := c.WriteAt(fresh, 0); err != nil {
		t.Fatal(err)
	}

	b := make([]byte, 64)
	bDone := make(chan error, 1)
	go func() { bDone <- c.ReadAt(b, 0) }()
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		releaseA()
		<-bDone
		t.Fatalf("read after the write waited on the pre-write fetch and got %x", b[:8])
	}
	if !bytes.Equal(b, fresh) {
		t.Fatalf("read after the write returned %x, want the written bytes", b[:8])
	}

	releaseA()
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, old) {
		t.Fatal("A did not get the bytes its own fetch read")
	}
	if got := mustRead(t, c, 0, 64); !bytes.Equal(got, fresh) {
		t.Fatal("the stale fetch was cached")
	}
	if s := c.Stats(); s.Misses != 2 || s.Coalesced != 0 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 misses, 0 coalesced, 1 hit", s)
	}
}

// Hammer: concurrent readers and writers over a small key space. Run with
// -race; correctness check is that every read observes some complete block
// state (the store writes whole blocks of one repeated byte).
func TestConcurrentReadersAndWriters(t *testing.T) {
	const (
		blocks    = 8
		blockSize = 64
		readers   = 4
		writers   = 2
		rounds    = 300
	)
	inner := newMemStore(blocks * blockSize)
	// Start from block-uniform contents: block b is filled with byte b.
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
				for _, v := range p[1:] {
					if v != p[0] { // torn block: saw a mix of versions
						bad.Add(1)
						return
					}
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b := (i*5 + w) % blocks
				fill := byte(b) + byte(i%2)*100 // two distinct valid versions
				if err := c.WriteAt(bytes.Repeat([]byte{fill}, blockSize), int64(b*blockSize)); err != nil {
					bad.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d readers/writers observed torn or failed blocks", n)
	}
	if s := c.Stats(); s.ResidentBytes > 3*blockSize {
		t.Fatalf("resident bytes %d exceed the %d budget", s.ResidentBytes, 3*blockSize)
	}
}
