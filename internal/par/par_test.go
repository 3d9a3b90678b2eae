package par

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

func TestThreads(t *testing.T) {
	for _, n := range []int{-1, 0} {
		if got := Threads(n); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("Threads(%d) = %d, want GOMAXPROCS %d", n, got, runtime.GOMAXPROCS(0))
		}
	}
	for _, n := range []int{1, 3, 8} {
		if got := Threads(n); got != n {
			t.Fatalf("Threads(%d) = %d", n, got)
		}
	}
}

// Every index of [0, n) is visited exactly once, by contiguous chunks of
// ⌈n/threads⌉ whose ids are distinct, below Threads(threads) and in index
// order.
func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, threads := range []int{0, 1, 3, 8} {
		tt := Threads(threads)
		for _, n := range []int{0, 1, tt - 1, tt, tt + 1, 1000} {
			visits := make([]int32, n)
			owner := make([]int32, tt)
			for i := range owner {
				owner[i] = -1
			}
			var calls atomic.Int32
			For(n, threads, func(chunk, lo, hi int) {
				calls.Add(1)
				if chunk < 0 || chunk >= tt {
					t.Errorf("n=%d threads=%d: chunk %d outside [0, %d)", n, threads, chunk, tt)
					return
				}
				if !atomic.CompareAndSwapInt32(&owner[chunk], -1, int32(lo)) {
					t.Errorf("n=%d threads=%d: chunk id %d used twice", n, threads, chunk)
				}
				if size := (n + tt - 1) / tt; lo != chunk*size || hi != min(lo+size, n) {
					t.Errorf("n=%d threads=%d: chunk %d is [%d, %d), want [%d, %d)", n, threads, chunk, lo, hi, chunk*size, min(chunk*size+size, n))
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d threads=%d: index %d visited %d times", n, threads, i, v)
				}
			}
			if n == 0 && calls.Load() != 0 {
				t.Fatalf("threads=%d: %d calls for an empty range", threads, calls.Load())
			}
		}
	}
}

// csr returns the offsets of a CSR layout with the given degrees.
func csr(degrees []int64) []int64 {
	offsets := make([]int64, len(degrees)+1)
	for u, d := range degrees {
		offsets[u+1] = offsets[u] + d
	}
	return offsets
}

func repeat(d int64, n int) []int64 {
	degrees := make([]int64, n)
	for u := range degrees {
		degrees[u] = d
	}
	return degrees
}

// forEdgesChunks runs ForEdges and returns its chunks as [lo, hi) pairs
// indexed by chunk id, failing unless every vertex is visited once by
// contiguous chunks whose distinct ids are below Threads(threads) and
// number them in vertex order.
func forEdgesChunks(t *testing.T, offsets []int64, threads int) [][2]int {
	t.Helper()
	n, tt := len(offsets)-1, Threads(threads)
	chunks := make([][2]int, tt)
	used := make([]atomic.Bool, tt)
	visits := make([]atomic.Int32, max(n, 0))
	ForEdges(offsets, threads, func(chunk, lo, hi int) {
		if chunk < 0 || chunk >= tt {
			t.Errorf("threads=%d: chunk %d outside [0, %d)", threads, chunk, tt)
			return
		}
		if used[chunk].Swap(true) {
			t.Errorf("threads=%d: chunk id %d used twice", threads, chunk)
		}
		chunks[chunk] = [2]int{lo, hi}
		for u := lo; u < hi; u++ {
			visits[u].Add(1)
		}
	})
	for u := range visits {
		if v := visits[u].Load(); v != 1 {
			t.Fatalf("threads=%d: vertex %d visited %d times", threads, u, v)
		}
	}
	var got [][2]int
	for c := range chunks {
		if !used[c].Load() {
			break
		}
		got = append(got, chunks[c])
	}
	for c := range got {
		if got[c][0] >= got[c][1] || (c > 0 && got[c][0] != got[c-1][1]) {
			t.Fatalf("threads=%d: chunks %v are not contiguous, non-empty and in vertex order", threads, got)
		}
	}
	if len(got) > 0 && (got[0][0] != 0 || got[len(got)-1][1] != n) {
		t.Fatalf("threads=%d: chunks %v do not cover [0, %d)", threads, got, n)
	}
	return got
}

func TestForEdgesVisitsEachVertexOnce(t *testing.T) {
	cases := map[string][]int64{
		"no vertices":  nil,
		"no edges":     make([]int64, 10),
		"one vertex":   {7},
		"few vertices": {3, 0, 1},
		"leading zero": {0, 0, 5, 5, 0, 0},
		"uniform":      repeat(4, 1000),
	}
	for name, degrees := range cases {
		t.Run(name, func(t *testing.T) {
			for _, threads := range []int{0, 1, 3, 8} {
				forEdgesChunks(t, csr(degrees), threads)
			}
		})
	}
	if chunks := forEdgesChunks(t, csr(make([]int64, 10)), 4); len(chunks) != 1 {
		t.Fatalf("no edges: chunks %v, want one chunk of every vertex", chunks)
	}
}

// A vertex holding more than E/threads edges is a chunk of its own,
// wherever it sits: first, between small vertices, or last. The one
// exception needs three chunks from two threads (small, hub, small), so
// there the hub shares the last chunk.
func TestForEdgesHubIsItsOwnChunk(t *testing.T) {
	small := repeat(1, 10)
	for _, pos := range []int{0, 5, 10} {
		degrees := slices.Concat(small[:pos], []int64{50}, small[pos:])
		for _, threads := range []int{2, 4, 8} {
			if threads == 2 && pos == 5 {
				continue
			}
			chunks := forEdgesChunks(t, csr(degrees), threads)
			if !slices.Contains(chunks, [2]int{pos, pos + 1}) {
				t.Errorf("hub at %d, threads=%d: chunks %v", pos, threads, chunks)
			}
		}
	}
}

// On a Zipf-skewed degree sequence, hubs first as in the bench graph, the
// largest chunk holds at most 1.05× the mean of E/threads edges, where
// For's equal vertex counts are far off.
func TestForEdgesBalancesZipfDegrees(t *testing.T) {
	degrees := make([]int64, 200_000)
	for r := range degrees {
		degrees[r] = 1 + int64(20_000/math.Pow(float64(r+1), 0.9))
	}
	offsets := csr(degrees)
	edges := float64(offsets[len(degrees)])
	for _, threads := range []int{2, 4, 8} {
		largest := func(chunks [][2]int) float64 {
			m := int64(0)
			for _, c := range chunks {
				m = max(m, offsets[c[1]]-offsets[c[0]])
			}
			return float64(m) / (edges / float64(threads))
		}
		got := largest(forEdgesChunks(t, offsets, threads))
		byCount := make([][2]int, threads)
		For(len(degrees), threads, func(chunk, lo, hi int) { byCount[chunk] = [2]int{lo, hi} })
		t.Logf("threads=%d: largest chunk %.3f× the mean, For's %.2f×", threads, got, largest(byCount))
		if got > 1.05 {
			t.Errorf("threads=%d: largest chunk %.3f× the mean", threads, got)
		}
	}
}
