package par

import (
	"runtime"
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
