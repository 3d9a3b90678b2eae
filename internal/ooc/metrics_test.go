package ooc

import (
	"context"
	"testing"

	"github.com/tea-graph/tea/internal/fault"
)

// Store I/O must publish volume counters and block-fetch latency to the
// default metrics registry. Deltas keep the test independent of other tests
// sharing the process-wide registry.
func TestStorePublishesMetrics(t *testing.T) {
	s, err := NewTempStore()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reads0 := mReads.Value()
	readBytes0 := mReadBytes.Value()
	writes0 := mWrites.Value()
	fetches0 := mReadSeconds.Count()

	if _, err := s.Append(make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := s.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(buf, 64); err != nil {
		t.Fatal(err)
	}

	if d := mReads.Value() - reads0; d != 2 {
		t.Fatalf("reads delta = %d, want 2", d)
	}
	if d := mReadBytes.Value() - readBytes0; d != 128 {
		t.Fatalf("read bytes delta = %d, want 128", d)
	}
	if d := mWrites.Value() - writes0; d != 1 {
		t.Fatalf("writes delta = %d, want 1", d)
	}
	if d := mReadSeconds.Count() - fetches0; d != 2 {
		t.Fatalf("block-fetch observations delta = %d, want 2", d)
	}
}

// DiskPAT's transient-read retry loop must feed the retry counter, and the
// FaultInjector the injected-fault counter.
func TestRetryAndFaultMetrics(t *testing.T) {
	inner, err := NewTempStore()
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	if _, err := inner.Append(make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector(inner, fault.New(7, fault.Fault{Op: fault.Read, Err: ErrTransient}))

	retries0 := mRetries.Value()
	injected0 := mInjected.Value()

	d := &DiskPAT{store: inj, retry: RetryPolicy{MaxRetries: 3}, trunkOff: []int64{0}, trunkSize: 1}
	if err := d.trunkRecord(context.Background(), 0, 0, make([]byte, 16)); err == nil {
		t.Fatal("read through a 100% transient fault injector succeeded")
	}
	if delta := mRetries.Value() - retries0; delta != 3 {
		t.Fatalf("retries delta = %d, want 3", delta)
	}
	if delta := mInjected.Value() - injected0; delta != 4 {
		t.Fatalf("injected delta = %d, want 4 (1 initial + 3 retries)", delta)
	}
}
