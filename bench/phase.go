package main

import (
	"context"
	"errors"
	"runtime"
	"time"

	"github.com/tea-graph/tea/bench/measure"
)

// window is what one equal-work slice of a phase reports: how much work it
// did (walk steps, edges) and how long the wall clock says it took.
type window struct {
	work      float64
	wall      time.Duration
	attempted int
	failed    int
}

// phase is one timed activity of a workload, measured as a series of windows
// whose inputs depend only on (seed, window index): step counts repeat
// exactly from run to run and only the clock varies.
type phase struct {
	name string
	// run performs window i; index -1 is the discarded warm-up.
	run func(ctx context.Context, i int) (window, error)

	rates     []float64 // work per second, one per window
	steal     []float64 // share of wanted CPU time the hypervisor withheld, one per window
	work      float64   // summed over the windows
	attempted int
	failed    int
}

func (p *phase) record(w window) {
	p.rates = append(p.rates, w.work/w.wall.Seconds())
	p.work += w.work
	p.attempted += w.attempted
	p.failed += w.failed
}

const (
	// minRounds keeps every metric a median of at least this many windows
	// even on a machine too slow to fit them into the requested seconds.
	minRounds = 20
	// maxRounds bounds memory on a machine much faster than expected.
	maxRounds = 2000
)

// interleave runs the phases round-robin, window by window, until budget has
// elapsed: window 0 of every phase, then window 1 of every phase, and so on.
// Machine speed drifts over tens of seconds on a shared box; with
// interleaving every phase samples the whole run instead of one contiguous
// slot, so the drift lands in every phase's quartiles and not in one
// phase's median. One warm-up window per phase
// is discarded, and the garbage collector is run once before timing starts.
func interleave(ctx context.Context, e *env, phases ...*phase) error {
	for _, p := range phases {
		if _, err := p.run(ctx, -1); err != nil {
			return err
		}
	}
	runtime.GC()
	start := time.Now()
	for round := 0; round < maxRounds && (round < e.minRounds || time.Since(start) < e.budget); round++ {
		for _, p := range phases {
			if err := ctx.Err(); err != nil {
				return err
			}
			before, err := measure.ReadCPUTicks()
			if err != nil {
				return err
			}
			w, err := p.run(ctx, round)
			if errors.Is(err, errExhausted) {
				return nil // a phase ran out of generated input: the rounds end here
			}
			if err != nil {
				return err
			}
			after, err := measure.ReadCPUTicks()
			if err != nil {
				return err
			}
			p.record(w)
			p.steal = append(p.steal, measure.StealShare(before, after))
		}
	}
	return nil
}

// medianSetup times setup n times after one discarded warm-up and returns the
// summary of the n times. Every set-up but the last is torn down, and the
// heap collected, before the next begins, so each one starts from the same
// memory state; the last is left up for the workload to use and its teardown
// returned.
func medianSetup(n int, setup func() (teardown func(), err error)) (measure.Summary, func(), error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		start := time.Now()
		teardown, err := setup()
		if err != nil {
			return measure.Summary{}, nil, err
		}
		if i > 0 {
			times = append(times, time.Since(start).Seconds())
		}
		if i == n {
			return measure.Summarize(times), teardown, nil
		}
		teardown()
	}
}

// mix is splitmix64's finalizer: window seeds and checksums derive from it.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// windowSeed derives the walk seed of one window of one phase. The warm-up
// window (-1) gets a seed of its own.
func windowSeed(seed uint64, phaseID, i int) uint64 {
	return mix(mix(seed^uint64(phaseID)<<48) + uint64(i+1))
}
