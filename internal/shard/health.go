package shard

import (
	"sort"
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
	// live sibling has failed, probe-eligible ones (past OpenFor) first.
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

// BreakerConfig tunes a replica circuit breaker. The zero value is usable.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that opens the
	// breaker. Default 3.
	FailureThreshold int
	// OpenFor is how long an open breaker ranks hard-open before it becomes
	// probe-eligible: ahead of hard-open siblings, still behind live ones.
	// Default 2s.
	OpenFor time.Duration
	// EWMAAlpha smooths the latency estimate (new = α·sample + (1−α)·old).
	// Default 0.2.
	EWMAAlpha float64
	// now is a test hook; nil means time.Now.
	now func() time.Time
}

func (c BreakerConfig) normalized() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 2 * time.Second
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.2
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// latencyRingSize bounds the per-replica sample window the p99 hedge delay
// is computed from. 128 samples ≈ the last few step rounds of a busy walk.
const latencyRingSize = 128

// Breaker is a per-replica circuit breaker with an open window and a
// latency profile (EWMA for preference ordering, a sample ring for the
// p99-based hedge delay). All methods are safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	fails    int       // consecutive failures
	openedAt time.Time // when fails crossed the threshold (re-armed per failure while open)
	ewma     float64   // seconds; 0 until first success
	ring     [latencyRingSize]float64
	ringN    int // samples written (caps at ring size for indexing)
	ringPos  int
	okTotal  int64
	errTotal int64
}

// NewBreaker builds a breaker with cfg (zero value → defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.normalized()}
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
		if b.fails >= b.cfg.FailureThreshold {
			// Re-arm the open window on every failure at/over the threshold so
			// a failed attempt on an open replica buys another OpenFor of quiet.
			b.openedAt = b.cfg.now()
		}
		return
	}
	b.okTotal++
	b.fails = 0
	sec := d.Seconds()
	if b.ewma == 0 {
		b.ewma = sec
	} else {
		b.ewma = b.cfg.EWMAAlpha*sec + (1-b.cfg.EWMAAlpha)*b.ewma
	}
	b.ring[b.ringPos] = sec
	b.ringPos = (b.ringPos + 1) % latencyRingSize
	if b.ringN < latencyRingSize {
		b.ringN++
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
	case b.fails >= b.cfg.FailureThreshold:
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

// P99 returns the 99th-percentile success latency over the sample window and
// the number of samples behind it; callers gate hedging on the sample count.
func (b *Breaker) P99() (time.Duration, int) {
	b.mu.Lock()
	n := b.ringN
	var window []float64
	if n > 0 {
		window = append(window, b.ring[:n]...)
	}
	b.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(window)
	idx := (n * 99) / 100
	if idx >= n {
		idx = n - 1
	}
	return time.Duration(window[idx] * float64(time.Second)), n
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
		if b.cfg.now().Sub(b.openedAt) >= b.cfg.OpenFor {
			r = 2 // probe-eligible
		} else {
			r = 3
		}
	}
	return r, b.ewma
}
