package shard

import (
	"sync"
	"time"
)

// HealthState classifies one replica as seen by this process's breaker.
type HealthState int

const (
	// HealthHealthy: no recent failures; the replica is preferred.
	HealthHealthy HealthState = iota
	// HealthSuspect: some consecutive failures, below the breaker threshold.
	HealthSuspect
	// HealthOpen: the breaker tripped; the replica is tried only after every
	// live sibling has failed, probe-eligible ones (past openFor) first.
	HealthOpen
)

func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthSuspect:
		return "suspect"
	case HealthOpen:
		return "open"
	default:
		return "unknown"
	}
}

// Breaker tuning, the same for every replica of every group.
const (
	// failureThreshold is the consecutive-failure count that opens the
	// breaker.
	failureThreshold = 3
	// openFor is how long an open breaker ranks hard-open before it becomes
	// probe-eligible: ahead of hard-open siblings, still behind live ones.
	openFor = 2 * time.Second
	// ewmaAlpha smooths the latency estimate (new = α·sample + (1−α)·old).
	ewmaAlpha = 0.2
)

// Breaker is a per-replica circuit breaker with an open window and a
// latency EWMA for preference ordering. All methods are safe for concurrent
// use.
type Breaker struct {
	now func() time.Time // a test hook; time.Now outside tests

	mu       sync.Mutex
	fails    int       // consecutive failures
	openedAt time.Time // when fails crossed the threshold (re-armed per failure while open)
	ewma     float64   // seconds; 0 until first success
	okTotal  int64
	errTotal int64
}

// NewBreaker builds a breaker in the healthy state.
func NewBreaker() *Breaker {
	return &Breaker{now: time.Now}
}

// Report records the outcome of one attempt against this replica. Latency is
// only profiled on success (a failed attempt's duration measures the failure
// mode, not the replica).
func (b *Breaker) Report(d time.Duration, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		b.errTotal++
		b.fails++
		if b.fails >= failureThreshold {
			// Re-arm the open window on every failure at/over the threshold so
			// a failed attempt on an open replica buys another openFor of quiet.
			b.openedAt = b.now()
		}
		return
	}
	b.okTotal++
	b.fails = 0
	sec := d.Seconds()
	if b.ewma == 0 {
		b.ewma = sec
	} else {
		b.ewma = ewmaAlpha*sec + (1-ewmaAlpha)*b.ewma
	}
}

// State classifies the replica for observability and preference ordering.
func (b *Breaker) State() HealthState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked()
}

func (b *Breaker) stateLocked() HealthState {
	switch {
	case b.fails >= failureThreshold:
		return HealthOpen
	case b.fails > 0:
		return HealthSuspect
	default:
		return HealthHealthy
	}
}

// EWMA returns the smoothed success latency (0 until the first success).
func (b *Breaker) EWMA() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Duration(b.ewma * float64(time.Second))
}

// Fails returns the consecutive-failure count (for status reporting).
func (b *Breaker) Fails() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails
}

// Totals returns lifetime success/failure counts.
func (b *Breaker) Totals() (ok, errs int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.okTotal, b.errTotal
}

// Rank orders replicas for attempt preference: healthy first (0), then
// suspect (1), then open-but-probe-eligible (2), then hard-open (3, still
// attempted as a last resort — the cluster answers 503 only when every
// replica truly fails). Ties break on the returned latency EWMA (seconds).
func (b *Breaker) Rank() (r int, ewma float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.stateLocked() {
	case HealthHealthy:
		r = 0
	case HealthSuspect:
		r = 1
	default:
		if b.now().Sub(b.openedAt) >= openFor {
			r = 2 // probe-eligible
		} else {
			r = 3
		}
	}
	return r, b.ewma
}
