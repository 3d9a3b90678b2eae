// Package par is the one parallel loop of §4.2 preprocessing: candidate
// search, weight evaluation, per-vertex table construction and auxiliary
// index generation each split an index range into contiguous chunks and run
// one goroutine per chunk. For cuts chunks of equal index count; ForEdges
// cuts a CSR vertex range into chunks of equal edge count. Every chunk
// writes a disjoint range, so a build's result does not depend on the
// thread count.
package par

import (
	"runtime"
	"slices"
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
	cuts := []int{0}
	for hi := size; hi < n; hi += size {
		cuts = append(cuts, hi)
	}
	runChunks(append(cuts, n), body)
}

// ForEdges is For over the vertices [0, len(offsets)-1) of a CSR layout in
// which vertex u owns the edges [offsets[u], offsets[u+1]). It cuts them
// into at most Threads(threads) contiguous chunks of about equal edge
// count, so a per-vertex build whose work follows the degree keeps every
// thread busy on a skewed graph. Each cut is the last vertex boundary
// within an even share of the edges no chunk holds yet, found by binary
// search over offsets; a vertex larger than that share is a chunk of its
// own. Chunk ids are as in For.
func ForEdges(offsets []int64, threads int, body func(chunk, lo, hi int)) {
	n := len(offsets) - 1
	if n <= 0 {
		return
	}
	t := Threads(threads)
	cuts := []int{0}
	for lo := 0; lo < n; {
		hi := n
		if left := t - len(cuts) + 1; left > 1 {
			share := (offsets[n] - offsets[lo]) / int64(left)
			after, _ := slices.BinarySearch(offsets[lo+2:], offsets[lo]+share+1)
			hi = lo + 1 + after
		}
		cuts = append(cuts, hi)
		lo = hi
	}
	runChunks(cuts, body)
}

// runChunks calls body(c, cuts[c], cuts[c+1]) for every chunk c, each in
// its own goroutine, and returns once every call has.
func runChunks(cuts []int, body func(chunk, lo, hi int)) {
	var wg sync.WaitGroup
	for c := range len(cuts) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c, cuts[c], cuts[c+1])
		}()
	}
	wg.Wait()
}
