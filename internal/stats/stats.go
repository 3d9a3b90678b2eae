// Package stats provides the measurement substrate of the engine: step-level
// cost counters (the "#edges/step" metric of Figure 2, trial counts,
// simulated I/O volume), streaming mean/variance, and simple histograms.
// Counters are plain structs merged explicitly — workers keep private copies
// and combine at the end, so the sampling hot path never touches atomics.
package stats

import (
	"fmt"
)

// Cost accumulates the work performed by a walk or a sampler.
type Cost struct {
	Steps          int64 // edges traversed by walkers
	EdgesEvaluated int64 // array slots / edges examined while sampling
	Trials         int64 // rejection proposals (KnightKing-style samplers, β tests)
	Rejected       int64 // rejected proposals
	BytesRead      int64 // out-of-core bytes fetched
	ReadOps        int64 // out-of-core read operations
	ReadRetries    int64 // out-of-core reads retried after transient faults
	WalksStarted   int64
	WalksCompleted int64 // walks that reached the target length or restarted (RunRestart)
	WalksDeadEnded int64 // walks that ran out of temporal candidates
	WalksCancelled int64 // walks cut short by context cancellation, not by the graph
	WalksPanicked  int64 // walks aborted by a recovered panic in user code
}

// WalksFinished returns the terminal classifications summed; a run that was
// not torn down mid-accounting satisfies WalksFinished() == WalksStarted.
func (c Cost) WalksFinished() int64 {
	return c.WalksCompleted + c.WalksDeadEnded + c.WalksCancelled + c.WalksPanicked
}

// Add merges other into c.
func (c *Cost) Add(other Cost) {
	c.Steps += other.Steps
	c.EdgesEvaluated += other.EdgesEvaluated
	c.Trials += other.Trials
	c.Rejected += other.Rejected
	c.BytesRead += other.BytesRead
	c.ReadOps += other.ReadOps
	c.ReadRetries += other.ReadRetries
	c.WalksStarted += other.WalksStarted
	c.WalksCompleted += other.WalksCompleted
	c.WalksDeadEnded += other.WalksDeadEnded
	c.WalksCancelled += other.WalksCancelled
	c.WalksPanicked += other.WalksPanicked
}

// EdgesPerStep returns the Figure 2 metric: average edges evaluated per
// sampling step. Zero steps yield zero.
func (c Cost) EdgesPerStep() float64 {
	if c.Steps == 0 {
		return 0
	}
	return float64(c.EdgesEvaluated) / float64(c.Steps)
}

// TrialsPerStep returns average rejection proposals per step.
func (c Cost) TrialsPerStep() float64 {
	if c.Steps == 0 {
		return 0
	}
	return float64(c.Trials) / float64(c.Steps)
}

// String renders the headline numbers.
func (c Cost) String() string {
	return fmt.Sprintf("steps=%d edges/step=%.2f trials/step=%.2f bytes=%d",
		c.Steps, c.EdgesPerStep(), c.TrialsPerStep(), c.BytesRead)
}

// Histogram is a fixed-bucket histogram over [0, len(buckets)) with an
// overflow bucket; bucket i counts values equal to i.
type Histogram struct {
	counts   []int64
	overflow int64
}

// NewHistogram creates a histogram of n exact-value buckets.
func NewHistogram(n int) *Histogram {
	return &Histogram{counts: make([]int64, n)}
}

// Observe adds a value.
func (h *Histogram) Observe(v int) {
	if v >= 0 && v < len(h.counts) {
		h.counts[v]++
		return
	}
	h.overflow++
}

// Count returns the number of observations of exactly v; out-of-range values
// are reported via Overflow.
func (h *Histogram) Count(v int) int64 {
	if v >= 0 && v < len(h.counts) {
		return h.counts[v]
	}
	return 0
}

// Overflow returns the count of out-of-range observations.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Total returns all observations.
func (h *Histogram) Total() int64 {
	t := h.overflow
	for _, c := range h.counts {
		t += c
	}
	return t
}

// Merge combines another histogram with identical bucketing into h.
func (h *Histogram) Merge(o *Histogram) {
	if len(o.counts) != len(h.counts) {
		panic("stats: merging histograms with different bucket counts")
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.overflow += o.overflow
}
