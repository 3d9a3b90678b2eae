// Package par is the one parallel loop of §4.2 preprocessing: candidate
// search, weight evaluation, per-vertex table construction and auxiliary
// index generation each split an index range into contiguous, equal-size
// chunks and run one goroutine per chunk. Every chunk writes a disjoint
// range, so a build's result does not depend on the thread count.
package par

import (
	"runtime"
	"sync"
)

// Threads resolves a thread-count option: n itself, or GOMAXPROCS when
// n < 1.
func Threads(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For splits [0, n) into chunks of ⌈n/Threads(threads)⌉ indices (the last
// may be shorter) and calls body(chunk, lo, hi) on each in its own
// goroutine, returning once every call has. chunk numbers the chunks from 0
// in index order and is below Threads(threads), so it can index a
// per-chunk slot.
func For(n, threads int, body func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	t := Threads(threads)
	size := (n + t - 1) / t
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		wg.Add(1)
		go func(chunk, lo, hi int) {
			defer wg.Done()
			body(chunk, lo, hi)
		}(lo/size, lo, min(lo+size, n))
	}
	wg.Wait()
}
