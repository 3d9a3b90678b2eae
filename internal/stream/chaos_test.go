package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/fault"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/vfs"
	"github.com/tea-graph/tea/internal/wal"
)

// The fault-injection chaos harness. Where recovery_test.go crashes the
// process at clean record boundaries, these tests fail the *device*: ENOSPC,
// failed fsyncs, torn writes, and crashes in the middle of a snapshot rename,
// all scripted through vfs.FaultFS. The acceptance property is the same —
// after the fault, reopening the directory must yield a graph structurally
// equal (identical seeded walks) to the shadow graph of exactly the
// operations whose durability the engine still owes.

// applyUntilFault drives ops sequentially through d and returns how many were
// acknowledged before an infrastructure failure stopped the stream (-1 fault
// never fired: every op acked).
func applyUntilFault(t *testing.T, d *DurableGraph, ops []crashOp) (acked int, faulted bool) {
	t.Helper()
	for i, op := range ops {
		var err error
		switch op.kind {
		case 0:
			err = d.AppendBatch(op.edges)
		case 1:
			err = d.DeleteEdges(op.edges)
		case 2:
			_, err = d.ExpireBefore(op.horizon)
		}
		if errors.Is(err, ErrDegraded) || errors.Is(err, ErrClosed) {
			return i, true
		}
		// Op-level failures (stale batch, edge not found) are scripted into
		// the ops and deterministic; the record was durably logged.
	}
	return len(ops), false
}

// TestFaultMatrixShadowEquality is the randomized fault matrix: for every
// fault point — WAL write ENOSPC, torn WAL write, failed WAL fsync, snapshot
// temp-file ENOSPC (create and fsync), crash during snapshot rename — inject
// the fault at a random operation offset, run until the stream degrades,
// hard-crash, reopen on a healthy filesystem, and require exact shadow-graph
// equality for the prefix the engine owes. Then finish the script on the
// reopened graph and require full equality, proving the survivor is not
// subtly wedged.
func TestFaultMatrixShadowEquality(t *testing.T) {
	// residue is how many extra ops beyond the acked prefix the recovered
	// graph must contain. A failed fsync leaves the record bytes in the file
	// (only the acknowledgement was withheld), so replay legitimately applies
	// one more op; every other fault leaves no replayable residue.
	cases := []struct {
		name    string
		fault   fault.Fault
		residue int
	}{
		{"walWriteENOSPC", fault.Fault{Op: fault.Write, Target: "wal-", Once: true}, 0},
		{"walWriteTorn", fault.Fault{Op: fault.Write, Kind: fault.Torn, Target: "wal-", Once: true}, 0},
		{"walSyncFail", fault.Fault{Op: fault.Sync, Target: "wal-", Once: true}, 1},
		{"snapCreateENOSPC", fault.Fault{Op: fault.Create, Target: ".snapshot-", Once: true}, 0},
		{"snapSyncENOSPC", fault.Fault{Op: fault.Sync, Target: ".snapshot-", Once: true}, 0},
		{"snapRenameCrash", fault.Fault{Op: fault.Rename, Kind: fault.Crash, Target: "snapshot.", Once: true}, 0},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				seed := int64(100 + 10*ci + trial)
				ops := genOps(seed, 40)
				rng := rand.New(rand.NewSource(seed * 31337))
				dir := t.TempDir()
				ffs := vfs.NewFaultFS(vfs.OS, fault.New(seed))

				cfg := DurableConfig{
					WAL:           wal.Options{Policy: wal.SyncAlways},
					SnapshotEvery: 5,
					SnapshotKeep:  2,
					HealInterval:  -1, // no self-healing: this test is about recovery
					FS:            ffs,
				}
				d := openDurable(t, dir, cfg)
				// Arm after opening so recovery/segment-creation stays clean;
				// the fault fires partway through the op stream.
				fault := tc.fault
				fault.After = rng.Intn(6)
				ffs.Inject(fault)

				acked, faulted := applyUntilFault(t, d, ops)
				d.Crash()
				if !faulted && ffs.Fired() == 0 {
					t.Fatalf("trial %d: fault never fired (acked %d)", trial, acked)
				}

				owed := acked
				if faulted {
					owed += tc.residue
				}
				shadow := applyShadow(t, ops, owed)
				clean := cfg
				clean.FS = nil // healthy disk for recovery
				d2 := openDurable(t, dir, clean)
				d2.View(func(g *Graph) { requireSameGraph(t, shadow, g) })

				// The survivor accepts the rest of the script.
				if err := applyDurable(d2, ops, owed, len(ops)); err != nil {
					t.Fatalf("trial %d: reopened graph rejected remainder: %v", trial, err)
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

// snapshotGens globs the retained snapshot generation files, oldest first.
func snapshotGens(t *testing.T, dir string) []string {
	t.Helper()
	gens, err := filepath.Glob(filepath.Join(dir, "snapshot.*"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, g := range gens {
		if filepath.Ext(g) != ".corrupt" {
			out = append(out, g)
		}
	}
	sort.Strings(out) // zero-padded LSNs: lexicographic = numeric
	return out
}

// TestCorruptLatestSnapshotFallsBack plants a bit flip in the newest snapshot
// generation. Reopening must quarantine it (rename to *.corrupt), boot from
// the previous generation, replay the longer WAL suffix, and land on the
// exact full shadow.
func TestCorruptLatestSnapshotFallsBack(t *testing.T) {
	ops := genOps(77, 40)
	dir := t.TempDir()
	cfg := DurableConfig{
		WAL:           wal.Options{Policy: wal.SyncAlways, SegmentBytes: 256},
		SnapshotEvery: 5,
		SnapshotKeep:  2,
	}
	d := openDurable(t, dir, cfg)
	if err := applyDurable(d, ops, 0, len(ops)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	gens := snapshotGens(t, dir)
	if len(gens) < 2 {
		t.Fatalf("want >=2 snapshot generations, got %v", gens)
	}
	newest := gens[len(gens)-1]
	flipByte(t, newest, 24) // inside the checksummed body

	d2 := openDurable(t, dir, cfg)
	defer d2.Close()
	if _, err := os.Stat(newest + ".corrupt"); err != nil {
		t.Fatalf("corrupt generation was not quarantined: %v", err)
	}
	if _, err := os.Stat(newest); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt generation still in place: %v", err)
	}
	if got, want := d2.Recovery().SnapshotLSN, snapshotPathLSN(t, gens[len(gens)-2]); got != want {
		t.Fatalf("recovered from snapshot LSN %d, want previous generation %d", got, want)
	}
	shadow := applyShadow(t, ops, len(ops))
	d2.View(func(g *Graph) { requireSameGraph(t, shadow, g) })
}

// snapshotPathLSN parses the LSN out of a generation filename.
func snapshotPathLSN(t *testing.T, path string) uint64 {
	t.Helper()
	var lsn uint64
	if _, err := fmt.Sscanf(filepath.Base(path), "snapshot.%d", &lsn); err != nil {
		t.Fatalf("bad generation name %s: %v", path, err)
	}
	return lsn
}

// TestAllSnapshotsCorruptRefusesPartialHistory corrupts every retained
// generation. With the WAL already trimmed past the oldest one, no replay can
// reconstruct full history — OpenDurable must refuse with ErrNoUsableSnapshot
// rather than silently serving a graph missing acknowledged writes.
func TestAllSnapshotsCorruptRefusesPartialHistory(t *testing.T) {
	ops := genOps(88, 48)
	dir := t.TempDir()
	cfg := DurableConfig{
		WAL:           wal.Options{Policy: wal.SyncAlways, SegmentBytes: 256},
		SnapshotEvery: 5,
		SnapshotKeep:  2,
	}
	d := openDurable(t, dir, cfg)
	if err := applyDurable(d, ops, 0, len(ops)); err != nil {
		t.Fatal(err)
	}
	if first := d.Log().FirstLSN(); first <= 1 {
		t.Fatalf("WAL was never trimmed (FirstLSN %d); tune SegmentBytes/ops", first)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, gen := range snapshotGens(t, dir) {
		flipByte(t, gen, 24)
	}
	if _, err := OpenDurable(dir, cfg); !errors.Is(err, ErrNoUsableSnapshot) {
		t.Fatalf("all generations corrupt: err = %v, want ErrNoUsableSnapshot", err)
	}
}

// TestSnapshotENOSPCPreservesGenerationsAndHeals is the disk-full degradation
// contract: an ENOSPC during checkpoint must leave every prior generation
// intact and readable, keep reads serving, flip the graph into the degraded
// (read-only) state with a cause the serving layer can map to 507 — and once
// the device recovers, the heal loop must restore writability on its own.
func TestSnapshotENOSPCPreservesGenerationsAndHeals(t *testing.T) {
	ops := genOps(99, 60)
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, fault.New(99))
	cfg := DurableConfig{
		WAL:           wal.Options{Policy: wal.SyncAlways},
		SnapshotEvery: 5,
		SnapshotKeep:  2,
		HealInterval:  20 * time.Millisecond,
		FS:            ffs,
	}
	d := openDurable(t, dir, cfg)
	defer d.Close()

	// Run far enough that generations exist, then fill the disk for snapshot
	// temp files only: WAL appends keep succeeding, checkpoints fail.
	if err := applyDurable(d, ops, 0, 30); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(fault.Fault{Op: fault.Create, Target: ".snapshot-"}) // sticky ENOSPC

	acked, faulted := applyUntilFault(t, d, ops[30:])
	if !faulted {
		t.Fatalf("stream never degraded (acked %d more ops)", acked)
	}
	if err := d.Err(); err == nil || !errors.Is(err, ErrDegraded) || !vfs.IsNoSpace(err) {
		t.Fatalf("degraded error = %v, want ErrDegraded wrapping ENOSPC", err)
	}

	// The failed checkpoint never prunes, so the generations from before the
	// fault are all still there — and must verify bit for bit.
	before := d.SnapshotPaths()
	if len(before) == 0 {
		t.Fatal("no snapshot generations survived the failed checkpoint")
	}
	for _, p := range before {
		if _, err := VerifySnapshotFile(nil, p, nil); err != nil {
			t.Fatalf("prior generation %s damaged by failed checkpoint: %v", filepath.Base(p), err)
		}
	}
	// Reads still serve the acked prefix exactly.
	shadow := applyShadow(t, ops, 30+acked)
	d.View(func(g *Graph) { requireSameGraph(t, shadow, g) })

	// Device recovers: the heal loop clears the degraded state by itself.
	ffs.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for d.Err() != nil {
		if time.Now().After(deadline) {
			t.Fatal("degraded state did not clear after device healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.AppendBatch([]temporal.Edge{{Src: 1, Dst: 2, Time: temporal.Time(1 << 40)}}); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}
