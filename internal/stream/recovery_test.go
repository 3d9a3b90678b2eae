package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/tea-graph/tea/internal/edgeio"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/wal"
)

// The randomized crash-recovery harness. Each case drives a seeded op
// sequence (appends, deletes — including failing ones — and expiries) into a
// DurableGraph, crashes it at a random point, reopens the directory, and
// requires the recovered graph to equal a shadow graph built by applying the
// same op prefix to a plain in-memory Graph. Because snapshots are exact and
// replay is deterministic, equality is structural — down to identical seeded
// walk paths (requireSameGraph).

// crashOp is one scripted mutation.
type crashOp struct {
	kind    int // 0 append, 1 delete, 2 expire
	edges   []temporal.Edge
	horizon temporal.Time
}

// genOps builds a deterministic op script from seed. Deletes target real
// edges most of the time but sometimes a bogus one, so the log records
// operations that failed — replay must reproduce those failures, not trip
// over them.
func genOps(seed int64, n int) []crashOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []crashOp
	var live []temporal.Edge
	now := temporal.Time(0)
	minT := temporal.Time(1)
	for len(ops) < n {
		switch r := rng.Intn(100); {
		case r < 65: // append a small batch of strictly newer edges
			batch := make([]temporal.Edge, 1+rng.Intn(4))
			for i := range batch {
				now++
				batch[i] = temporal.Edge{
					Src:  temporal.Vertex(rng.Intn(8)),
					Dst:  temporal.Vertex(1 + rng.Intn(10)),
					Time: now,
				}
			}
			live = append(live, batch...)
			ops = append(ops, crashOp{kind: 0, edges: batch})
		case r < 80 && len(live) > 0: // delete a live edge (maybe plus a bogus one)
			i := rng.Intn(len(live))
			batch := []temporal.Edge{live[i]}
			live = append(live[:i], live[i+1:]...)
			if rng.Intn(4) == 0 {
				batch = append(batch, temporal.Edge{Src: 200, Dst: 200, Time: 1}) // fails
			}
			ops = append(ops, crashOp{kind: 1, edges: batch})
		case r < 85: // delete nothing that exists: a fully failing record
			ops = append(ops, crashOp{kind: 1, edges: []temporal.Edge{{Src: 201, Dst: 201, Time: 2}}})
		case r < 95 && now > minT: // expire a slice of the window
			h := minT + temporal.Time(rng.Int63n(int64(now-minT)+1))
			minT = h
			kept := live[:0]
			for _, e := range live {
				if e.Time >= h {
					kept = append(kept, e)
				}
			}
			live = kept
			ops = append(ops, crashOp{kind: 2, horizon: h})
		}
	}
	return ops
}

// applyShadow replays ops[0:k) onto a fresh plain Graph exactly the way the
// durable committer applies them (errors ignored — they are deterministic).
func applyShadow(t *testing.T, ops []crashOp, k int) *Graph {
	t.Helper()
	g := mustNew(t, Config{})
	for _, op := range ops[:k] {
		switch op.kind {
		case 0:
			g.AppendBatch(op.edges)
		case 1:
			g.DeleteEdges(op.edges)
		case 2:
			g.ExpireBefore(op.horizon)
		}
	}
	return g
}

// applyDurable pushes ops[from:to) through the durable write path.
func applyDurable(d *DurableGraph, ops []crashOp, from, to int) error {
	for i, op := range ops[from:to] {
		var err error
		switch op.kind {
		case 0:
			err = d.AppendBatch(op.edges)
		case 1:
			err = d.DeleteEdges(op.edges)
		case 2:
			_, err = d.ExpireBefore(op.horizon)
		}
		// Op-level failures (stale, not-found) are scripted and fine; only
		// infrastructure failures (degraded, closed) abort the harness.
		if errors.Is(err, ErrDegraded) || errors.Is(err, ErrClosed) {
			return fmt.Errorf("op %d: %w", from+i, err)
		}
	}
	return nil
}

// tailSegment returns the newest WAL segment and its size.
func tailSegment(t *testing.T, dir string) (string, int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	sort.Strings(segs)
	tail := segs[len(segs)-1]
	st, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	return tail, st.Size()
}

// TestCrashRecoveryRandomized is the core acceptance property: for every
// injected crash point, reopening the WAL directory yields a graph equal to
// the shadow graph of the applied prefix.
func TestCrashRecoveryRandomized(t *testing.T) {
	cases := []struct {
		name          string
		seed          int64
		ops           int
		snapshotEvery int
		segmentBytes  int64
	}{
		{"plain", 1, 40, 0, 0},
		{"plain2", 2, 40, 0, 0},
		{"smallSegments", 3, 50, 0, 512},
		{"snapshots", 4, 50, 7, 0},
		{"snapshotsSmallSegments", 5, 60, 5, 512},
		{"expireHeavy", 6, 60, 9, 1024},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ops := genOps(tc.seed, tc.ops)
			rng := rand.New(rand.NewSource(tc.seed * 7919))
			// Crash after a random prefix, several times over the same script.
			for trial := 0; trial < 4; trial++ {
				k := 1 + rng.Intn(len(ops))
				dir := t.TempDir()
				cfg := DurableConfig{
					WAL:           wal.Options{Policy: wal.SyncAlways, SegmentBytes: tc.segmentBytes},
					SnapshotEvery: tc.snapshotEvery,
				}
				d := openDurable(t, dir, cfg)
				if err := applyDurable(d, ops, 0, k); err != nil {
					t.Fatal(err)
				}
				d.Crash()

				shadow := applyShadow(t, ops, k)
				d2 := openDurable(t, dir, cfg)
				d2.View(func(g *Graph) { requireSameGraph(t, shadow, g) })

				// The reopened graph accepts the remainder of the script and
				// still matches the full shadow.
				if err := applyDurable(d2, ops, k, len(ops)); err != nil {
					t.Fatal(err)
				}
				full := applyShadow(t, ops, len(ops))
				d2.View(func(g *Graph) { requireSameGraph(t, full, g) })
				if err := d2.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestCrashRecoveryTornTail shears the final WAL frame at a random byte —
// the shape a torn write leaves behind — and requires recovery to land on
// the shadow of every op but the last.
func TestCrashRecoveryTornTail(t *testing.T) {
	for seed := int64(10); seed < 16; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ops := genOps(seed, 30)
			rng := rand.New(rand.NewSource(seed * 104729))
			k := 2 + rng.Intn(len(ops)-1)
			dir := t.TempDir()
			// No snapshots here: the final WAL record must be op k's record,
			// not a snapshot marker, for shadow(k-1) to be the right answer.
			cfg := DurableConfig{WAL: wal.Options{Policy: wal.SyncAlways}}
			d := openDurable(t, dir, cfg)
			if err := applyDurable(d, ops, 0, k-1); err != nil {
				t.Fatal(err)
			}
			tail, before := tailSegment(t, dir)
			if err := applyDurable(d, ops, k-1, k); err != nil {
				t.Fatal(err)
			}
			tail2, after := tailSegment(t, dir)
			d.Crash()

			// The final op's record occupies (before, after] of the tail
			// segment — or all of a fresh segment if rotation intervened.
			if tail2 != tail {
				tail, before = tail2, int64(16) // header only
			}
			if after <= before {
				t.Fatalf("tail did not grow: %d -> %d", before, after)
			}
			cut := before + rng.Int63n(after-before) // in [before, after): always tears the record
			if err := os.Truncate(tail, cut); err != nil {
				t.Fatal(err)
			}

			shadow := applyShadow(t, ops, k-1)
			d2 := openDurable(t, dir, cfg)
			defer d2.Close()
			if k > 1 {
				ri := d2.Recovery()
				if cut > before && ri.TruncatedBytes == 0 {
					t.Fatalf("recovery reported no truncation for a torn tail (cut %d of %d)", cut, after)
				}
			}
			d2.View(func(g *Graph) { requireSameGraph(t, shadow, g) })
		})
	}
}

// TestCrashRecoveryMidLogCorruptionRefused flips a byte inside an early,
// acknowledged record. That is not a torn tail — recovery must refuse with
// wal.ErrCorrupt rather than silently dropping history.
func TestCrashRecoveryMidLogCorruptionRefused(t *testing.T) {
	for seed := int64(20); seed < 24; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ops := genOps(seed, 25)
			dir := t.TempDir()
			cfg := DurableConfig{WAL: wal.Options{Policy: wal.SyncAlways}}
			d := openDurable(t, dir, cfg)
			if err := applyDurable(d, ops, 0, len(ops)); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			// Damage the first record's payload: valid frames follow it.
			rng := rand.New(rand.NewSource(seed))
			segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			sort.Strings(segs)
			flipByte(t, segs[0], 16+8+int64(rng.Intn(4)))
			if _, err := OpenDurable(dir, cfg); !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("mid-log corruption: err = %v, want wal.ErrCorrupt", err)
			}
		})
	}
}

// flipByte XORs one byte of path in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// A record whose frame is intact but whose payload does not decode as its
// type says, or whose type is no record, refuses recovery with
// wal.ErrCorrupt: replay ignores only the mutation's own errors.
func TestReplayRefusesUndecodablePayload(t *testing.T) {
	good := edgeio.AppendList(nil, []temporal.Edge{{Src: 0, Dst: 1, Time: 1}})
	for name, bad := range map[string]wal.Entry{
		"short edge batch":     {Type: wal.RecEdgeBatch, Payload: good[:len(good)-1]},
		"miscounted deletions": {Type: wal.RecDeleteBatch, Payload: good[1:]},
		"short expiry":         {Type: wal.RecExpire, Payload: make([]byte, 7)},
		"unknown type":         {Type: 99, Payload: good},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := log.Append(wal.Entry{Type: wal.RecEdgeBatch, Payload: good}, bad); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenDurable(dir, DurableConfig{WAL: wal.Options{Policy: wal.SyncAlways}}); !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("err = %v, want wal.ErrCorrupt", err)
			}
		})
	}
}
