package shard

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

var errPeer = errors.New("peer boom")

func TestBreakerOpensAfterThresholdAndProbes(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: 2 * time.Second, now: clk.now})

	if st := b.State(); st != HealthHealthy {
		t.Fatalf("initial state %v", st)
	}
	b.Report(time.Millisecond, errPeer)
	if st := b.State(); st != HealthSuspect {
		t.Fatalf("after 1 failure: %v", st)
	}
	b.Report(time.Millisecond, errPeer)
	b.Report(time.Millisecond, errPeer)
	if st := b.State(); st != HealthOpen {
		t.Fatalf("after 3 failures: %v", st)
	}

	// A failed attempt after OpenFor keeps the breaker open.
	clk.advance(2 * time.Second)
	b.Report(time.Millisecond, errPeer)
	if st := b.State(); st != HealthOpen {
		t.Fatalf("after failed probe: %v", st)
	}

	// Successful probe closes the breaker.
	b.Report(time.Millisecond, nil)
	if st := b.State(); st != HealthHealthy {
		t.Fatalf("after good probe: %v", st)
	}
}

// An open replica is probe-eligible (rank 2) exactly when OpenFor has passed
// since its last failure; no attempt in flight can hold it at hard-open (3).
func TestBreakerRankFollowsOpenWindow(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: 2 * time.Second, now: clk.now})
	rank := func() int { r, _ := b.Rank(); return r }
	b.Report(time.Millisecond, errPeer)
	if r := rank(); r != 3 {
		t.Fatalf("inside OpenFor: rank %d, want 3", r)
	}
	clk.advance(2 * time.Second)
	if r := rank(); r != 2 {
		t.Fatalf("past OpenFor: rank %d, want 2", r)
	}
	if r := rank(); r != 2 {
		t.Fatalf("ranking twice: rank %d, want 2", r)
	}
	b.Report(time.Millisecond, errPeer)
	if r := rank(); r != 3 {
		t.Fatalf("after a failed probe: rank %d, want 3", r)
	}
}

func TestBreakerLatencyProfile(t *testing.T) {
	b := NewBreaker(BreakerConfig{EWMAAlpha: 0.5})
	for i := 0; i < 100; i++ {
		b.Report(10*time.Millisecond, nil)
	}
	b.Report(100*time.Millisecond, nil) // top-2% outliers: p99 must see them
	b.Report(100*time.Millisecond, nil)
	if p99, n := b.P99(); n != 102 || p99 < 50*time.Millisecond {
		t.Fatalf("p99 = %v over %d samples, want the outliers visible", p99, n)
	}
	// EWMA blends toward the outliers without jumping all the way.
	if e := b.EWMA(); e <= 10*time.Millisecond || e >= 100*time.Millisecond {
		t.Fatalf("ewma = %v", e)
	}
	// Failures never pollute the latency window.
	before, _ := b.P99()
	b.Report(10*time.Second, errPeer)
	if after, _ := b.P99(); after != before {
		t.Fatal("failed attempt entered the latency window")
	}
}

func TestReplicaOrderingPrefersHealthyThenLatency(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	mk := func() *Breaker {
		return NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: 2 * time.Second, now: clk.now})
	}
	fast, slow, suspect, open := mk(), mk(), mk(), mk()
	fast.Report(5*time.Millisecond, nil)
	slow.Report(50*time.Millisecond, nil)
	suspect.Report(5*time.Millisecond, nil)
	suspect.Report(time.Millisecond, errPeer)
	for i := 0; i < 3; i++ {
		open.Report(time.Millisecond, errPeer)
	}
	g := &ReplicaGroup[struct{}]{Replicas: []*Replica[struct{}]{
		{Addr: "open", breaker: open},
		{Addr: "slow", breaker: slow},
		{Addr: "suspect", breaker: suspect},
		{Addr: "fast", breaker: fast},
	}}
	var got []string
	for _, r := range g.ordered() {
		got = append(got, r.Addr)
	}
	want := []string{"fast", "slow", "suspect", "open"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	// Past OpenFor the open replica becomes probe-eligible but still ranks
	// behind live ones.
	clk.advance(3 * time.Second)
	if last := g.ordered()[3]; last.Addr != "open" {
		t.Fatalf("probe-eligible open replica jumped the queue: %v", last.Addr)
	}
}
