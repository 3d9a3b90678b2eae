package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/vfs"
)

// TestHealAfterSyncFailure degrades the log with an injected fsync failure,
// heals the filesystem, and verifies Heal rolls the live segment back to the
// durable point, probes the device, and resumes appends with correct LSNs.
func TestHealAfterSyncFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, fault.New(11))
	l, err := Open(dir, Options{Policy: SyncAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fill(t, l, 10, 0)

	ffs.Inject(fault.Fault{Op: fault.Sync, Err: errors.New("injected: fsync")})
	if _, err := l.Append(Entry{Type: RecEdgeBatch, Payload: []byte("doomed")}); err == nil {
		t.Fatal("append under injected fsync failure succeeded")
	}
	if l.Err() == nil {
		t.Fatal("log not degraded after fsync failure")
	}
	// Sticky: further appends fail without touching the disk.
	if _, err := l.Append(Entry{Type: RecEdgeBatch, Payload: []byte("also doomed")}); err == nil {
		t.Fatal("append on degraded log succeeded")
	}
	// Heal while the fault persists must fail and stay degraded.
	if err := l.Heal(); err == nil {
		t.Fatal("heal succeeded while fault still armed")
	}
	if l.Err() == nil {
		t.Fatal("failed heal cleared the sticky error")
	}

	ffs.Heal()
	if err := l.Heal(); err != nil {
		t.Fatalf("heal after clearing fault: %v", err)
	}
	if l.Err() != nil {
		t.Fatalf("sticky error survived heal: %v", l.Err())
	}

	// The doomed record was rolled back (never acknowledged); the probe noop
	// consumed one LSN. Next append lands after the probe.
	first, err := l.Append(Entry{Type: RecEdgeBatch, Payload: []byte("after heal")})
	if err != nil {
		t.Fatal(err)
	}
	if first != 12 { // 10 records + 1 probe noop -> next is 12
		t.Fatalf("post-heal LSN = %d, want 12", first)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery sees 10 originals + probe + post-heal record, no doomed bytes.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var noops, edges int
	if err := l2.Replay(func(r Record) error {
		switch r.Type {
		case RecNoop:
			noops++
		case RecEdgeBatch:
			edges++
			if string(r.Payload) == "doomed" || string(r.Payload) == "also doomed" {
				t.Fatalf("rolled-back record survived: %q", r.Payload)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if noops != 1 || edges != 11 {
		t.Fatalf("recovered %d noops, %d edges; want 1, 11", noops, edges)
	}
}

// TestHealRollsBackUnsyncedInterval checks that under SyncInterval, records
// written but never fsynced are rolled back by Heal — the crash contract.
func TestHealRollsBackUnsyncedInterval(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, fault.New(5))
	// Very long interval: the background flusher never fires during the test.
	l, err := Open(dir, Options{Policy: SyncInterval, Interval: 1 << 30, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fill(t, l, 5, 0)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fill(t, l, 3, 5) // acked but not yet synced
	ffs.Inject(fault.Fault{Op: fault.Sync, Err: errors.New("injected: fsync")})
	if err := l.Sync(); err == nil {
		t.Fatal("sync under fault succeeded")
	}
	ffs.Heal()
	if err := l.Heal(); err != nil {
		t.Fatal(err)
	}
	// The 3 unsynced records are gone; LSNs 6-8 are reassigned after the
	// probe took LSN 6.
	recs := collect(t, l)
	var edges int
	for _, r := range recs {
		if r.Type == RecEdgeBatch {
			edges++
		}
	}
	if edges != 5 {
		t.Fatalf("edges after heal = %d, want 5 (unsynced rolled back)", edges)
	}
}

// TestVerifySegmentDetectsBitFlip seals a segment, flips one payload byte,
// and expects VerifySegment to refuse it with ErrCorrupt.
func TestVerifySegmentDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 40, 0)
	sealed := l.SealedSegments()
	if len(sealed) == 0 {
		t.Fatal("no sealed segments after rotation")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	victim := sealed[0].Path
	var billed int
	bill := func(n int) error { billed += n; return nil }
	if err := VerifySegment(nil, victim, bill); err != nil {
		t.Fatalf("clean segment failed verify: %v", err)
	}
	if billed == 0 {
		t.Fatal("bill callback never invoked")
	}

	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifySegment(nil, victim, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("verify on flipped segment = %v, want ErrCorrupt", err)
	}
}

// TestReclaimableBefore checks the sealed-segment byte accounting behind the
// tea_wal_reclaimable_bytes gauge.
func TestReclaimableBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fill(t, l, 40, 0)
	sealed := l.SealedSegments()
	if len(sealed) < 2 {
		t.Fatalf("want >= 2 sealed segments, got %d", len(sealed))
	}
	if got := l.ReclaimableBefore(0); got != 0 {
		t.Fatalf("ReclaimableBefore(0) = %d, want 0", got)
	}
	// Everything before the live tail is reclaimable at the last LSN + 1.
	var want int64
	for _, s := range sealed {
		want += s.Size
	}
	if got := l.ReclaimableBefore(l.LastLSN() + 1); got != want {
		t.Fatalf("ReclaimableBefore(max) = %d, want %d", got, want)
	}
	// Cut at the second segment's first LSN: only segment one is free.
	if got := l.ReclaimableBefore(sealed[1].FirstLSN); got != sealed[0].Size {
		t.Fatalf("ReclaimableBefore(seg2 first) = %d, want %d", got, sealed[0].Size)
	}
	if lsn := l.FirstLSN(); lsn != 1 {
		t.Fatalf("FirstLSN = %d, want 1", lsn)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	var onDisk int64
	for _, p := range segs {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += st.Size()
	}
	if got := l.SizeBytes(); got != onDisk {
		t.Fatalf("SizeBytes = %d, on disk %d", got, onDisk)
	}
}

// TestReplayProgressReportsSegments checks the per-segment progress callback.
func TestReplayProgressReportsSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fill(t, l, 40, 0)
	total := len(l.SealedSegments()) + 1
	var calls []int
	err = l.ReplayProgress(func(Record) error { return nil }, func(done, tot int) {
		if tot != total {
			t.Fatalf("progress total = %d, want %d", tot, total)
		}
		calls = append(calls, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != total || calls[0] != 1 || calls[len(calls)-1] != total {
		t.Fatalf("progress calls = %v, want 1..%d", calls, total)
	}
}
