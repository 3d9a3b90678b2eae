package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/metrics"
	"github.com/tea-graph/tea/internal/scrub"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/vfs"
	"github.com/tea-graph/tea/internal/wal"
)

// Serving-layer storage chaos: disk-full degradation to read-only, automatic
// recovery once the device heals, recovery-progress reporting on /readyz,
// and scrub damage surfacing on /healthz.

// newFaultIngestServer builds a durable ingest server whose storage runs
// through a FaultFS, with a fast heal loop so degradation tests finish
// quickly.
func newFaultIngestServer(t *testing.T, dcfg stream.DurableConfig) (*httptest.Server, *Server, *stream.DurableGraph, *vfs.FaultFS) {
	t.Helper()
	ffs := vfs.NewFaultFS(vfs.OS, fault.New(42))
	dcfg.FS = ffs
	if dcfg.WAL.Policy == 0 && dcfg.WAL.Interval == 0 {
		dcfg.WAL.Policy = wal.SyncAlways
	}
	s := NewDurable(Config{Metrics: metrics.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	d, err := stream.OpenDurable(t.TempDir(), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	s.SetDurable(d)
	return ts, s, d, ffs
}

// postStatus posts body and returns the response without asserting, so tests
// can inspect status and headers.
func postStatus(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestIngestDiskFullDegradesToReadOnlyAndRecovers is the end-to-end disk-full
// contract: once the WAL hits ENOSPC, durable writes answer 507 Insufficient
// Storage with Retry-After while walks keep serving 200s, /healthz reports
// the degraded write path — and after the device recovers, the heal loop
// restores writability with no restart.
func TestIngestDiskFullDegradesToReadOnlyAndRecovers(t *testing.T) {
	ts, _, d, ffs := newFaultIngestServer(t, stream.DurableConfig{
		HealInterval: 20 * time.Millisecond,
	})

	postJSON(t, ts.URL+"/edges",
		`{"edges":[{"src":0,"dst":1,"t":10},{"src":0,"dst":2,"t":11}]}`, http.StatusOK, nil)

	// The disk fills: every WAL write fails with ENOSPC until healed.
	ffs.Inject(fault.Fault{Op: fault.Write, Target: "wal-"})

	resp := postStatus(t, ts.URL+"/edges", `{"edges":[{"src":1,"dst":2,"t":12}]}`)
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("POST /edges on full disk: %d, want 507", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("507 response missing Retry-After")
	}
	if d.Err() == nil {
		t.Fatal("durable graph not degraded after ENOSPC")
	}

	// Reads are unaffected: the graph serves walks from memory.
	var walk walkResponse
	getJSON(t, ts.URL+"/walk?from=0&length=4&count=2&seed=7", http.StatusOK, &walk)
	if len(walk.Walks) != 2 {
		t.Fatalf("walk during degradation: %+v", walk)
	}

	// Liveness stays 200 but the body says degraded and why.
	var health struct {
		Status  string         `json:"status"`
		Storage map[string]any `json:"storage"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "degraded" {
		t.Fatalf("healthz status %q, want degraded", health.Status)
	}
	if health.Storage["read_only"] != true || health.Storage["write_path"] == nil {
		t.Fatalf("healthz storage: %+v", health.Storage)
	}

	// Space frees up: the heal loop brings writes back on its own.
	ffs.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := postStatus(t, ts.URL+"/edges", `{"edges":[{"src":2,"dst":3,"t":20}]}`)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusInsufficientStorage && resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("unexpected status %d while waiting for heal", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("writes did not recover after device healed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var ok map[string]string
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &ok)
	if ok["status"] != "ok" {
		t.Fatalf("healthz after heal: %v", ok)
	}
}

// TestReadyzReportsRecoveryProgress: while the WAL is replaying, /readyz is
// 503 but carries the replay position instead of a bare refusal.
func TestReadyzReportsRecoveryProgress(t *testing.T) {
	s := NewDurable(Config{Metrics: metrics.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.ReportRecoveryProgress(stream.RecoveryProgress{
		SnapshotLSN:    42,
		SegmentsDone:   2,
		SegmentsTotal:  5,
		RecordsApplied: 70000,
	})
	var body map[string]any
	getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable, &body)
	if body["status"] != "recovering" {
		t.Fatalf("readyz status: %v", body)
	}
	if body["snapshot_lsn"] != float64(42) || body["segments_replayed"] != float64(2) ||
		body["segments_total"] != float64(5) || body["records_applied"] != float64(70000) {
		t.Fatalf("readyz progress body: %v", body)
	}
}

// TestScrubDamageDegradesHealthz plants bit flips in a sealed WAL segment and
// in a snapshot generation, runs one scrub pass, and requires the damage to
// surface in tea_scrub_errors_total and on /healthz within that single pass.
func TestScrubDamageDegradesHealthz(t *testing.T) {
	dir := t.TempDir()
	d, err := stream.OpenDurable(dir, stream.DurableConfig{
		WAL:           wal.Options{Policy: wal.SyncAlways, SegmentBytes: 256},
		SnapshotEvery: 8,
		SnapshotKeep:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	s := NewDurable(Config{Metrics: metrics.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	s.SetDurable(d)

	for i := 0; i < 30; i++ {
		postJSON(t, ts.URL+"/edges", `{"edges":[{"src":0,"dst":1,"t":`+itoa(10+i)+`}]}`, http.StatusOK, nil)
	}
	sealed := d.Log().SealedSegments()
	snaps := d.SnapshotPaths()
	if len(sealed) == 0 || len(snaps) == 0 {
		t.Fatalf("need sealed segments and snapshots: %d/%d", len(sealed), len(snaps))
	}

	sc := scrub.New(scrub.Config{RateMBps: -1},
		scrub.Files{
			TargetName: "wal",
			List: func() ([]string, error) {
				segs := d.Log().SealedSegments()
				paths := make([]string, len(segs))
				for i, seg := range segs {
					paths[i] = seg.Path
				}
				return paths, nil
			},
			Verify: func(path string, bill func(int) error) error {
				return wal.VerifySegment(nil, path, bill)
			},
		},
		scrub.Files{
			TargetName: "snapshot",
			List:       func() ([]string, error) { return d.SnapshotPaths(), nil },
			Verify: func(path string, bill func(int) error) error {
				_, err := stream.VerifySnapshotFile(nil, path, bill)
				return err
			},
		})
	s.SetScrubber(sc)

	// Clean baseline pass.
	if err := sc.RunOnce(context.Background()); err != nil {
		t.Fatalf("clean pass found damage: %v", err)
	}
	var ok map[string]string
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &ok)
	if ok["status"] != "ok" {
		t.Fatalf("healthz before damage: %v", ok)
	}

	// Plant one bit flip in each store.
	flipFileByte(t, sealed[0].Path, 40)
	flipFileByte(t, snaps[len(snaps)-1], 24)

	errsBefore := metrics.Default.Counter("tea_scrub_errors_total").Value()
	if err := sc.RunOnce(context.Background()); err == nil {
		t.Fatal("scrub pass over damaged stores reported clean")
	}
	if got := metrics.Default.Counter("tea_scrub_errors_total").Value(); got < errsBefore+2 {
		t.Fatalf("tea_scrub_errors_total %d -> %d, want +2", errsBefore, got)
	}
	dmg := sc.Damage()
	if _, ok := dmg["wal"]; !ok {
		t.Fatalf("wal damage not detected: %v", dmg)
	}
	if _, ok := dmg["snapshot"]; !ok {
		t.Fatalf("snapshot damage not detected: %v", dmg)
	}

	var health struct {
		Status  string         `json:"status"`
		Storage map[string]any `json:"storage"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "degraded" || health.Storage["scrub"] == nil {
		t.Fatalf("healthz after damage: status=%q storage=%+v", health.Status, health.Storage)
	}
}

// itoa avoids pulling in strconv for one literal-building loop.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// flipFileByte XORs one byte of path in place.
func flipFileByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatalf("read %s@%d: %v", filepath.Base(path), off, err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
