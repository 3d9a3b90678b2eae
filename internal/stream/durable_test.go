package stream

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/wal"
)

func openDurable(t *testing.T, dir string, cfg DurableConfig) *DurableGraph {
	t.Helper()
	d, err := OpenDurable(dir, cfg)
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	return d
}

func TestDurableLogThenApplyAndReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := DurableConfig{WAL: wal.Options{Policy: wal.SyncAlways}}
	d := openDurable(t, dir, cfg)
	for i := 0; i < 20; i++ {
		if err := d.AppendBatch([]temporal.Edge{
			{Src: temporal.Vertex(i % 4), Dst: temporal.Vertex(i + 1), Time: temporal.Time(i + 1)},
		}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := d.DeleteEdges([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	if dropped, err := d.ExpireBefore(3); err != nil || dropped == 0 {
		t.Fatalf("expire: dropped %d err %v", dropped, err)
	}
	edges, frontier := d.NumEdges(), d.Frontier()
	var want *Graph
	d.View(func(g *Graph) { want = g })
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: pure WAL replay (no snapshot yet) reproduces the exact state.
	d2 := openDurable(t, dir, cfg)
	defer d2.Close()
	if d2.NumEdges() != edges || d2.Frontier() != frontier {
		t.Fatalf("reopened: %d edges frontier %d, want %d / %d", d2.NumEdges(), d2.Frontier(), edges, frontier)
	}
	ri := d2.Recovery()
	if ri.Replayed != 22 || ri.SnapshotLSN != 0 {
		t.Fatalf("recovery = %+v, want 22 replayed, no snapshot", ri)
	}
	d2.View(func(g *Graph) { requireSameGraph(t, want, g) })

	// And ingest continues where it left off.
	if err := d2.AppendBatch([]temporal.Edge{{Src: 0, Dst: 9, Time: frontier + 1}}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

func TestDurableSnapshotTrimsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := DurableConfig{
		WAL:           wal.Options{Policy: wal.SyncAlways, SegmentBytes: 512},
		SnapshotEvery: 5,
	}
	d := openDurable(t, dir, cfg)
	for i := 0; i < 32; i++ {
		if err := d.AppendBatch([]temporal.Edge{
			{Src: temporal.Vertex(i % 3), Dst: temporal.Vertex(i + 1), Time: temporal.Time(i + 1)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var want *Graph
	d.View(func(g *Graph) { want = g })
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if gens, _ := filepath.Glob(filepath.Join(dir, "snapshot.*")); len(gens) == 0 {
		t.Fatal("no snapshot generation written")
	}

	d2 := openDurable(t, dir, cfg)
	defer d2.Close()
	ri := d2.Recovery()
	if ri.SnapshotLSN == 0 {
		t.Fatal("reopen ignored the snapshot")
	}
	if ri.Replayed >= 32 {
		t.Fatalf("replayed %d records despite snapshot at LSN %d", ri.Replayed, ri.SnapshotLSN)
	}
	d2.View(func(g *Graph) { requireSameGraph(t, want, g) })
}

func TestDurableSnapshotConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := DurableConfig{
		Graph:         Config{Weight: sampling.WeightSpec{Kind: sampling.WeightExponential, Lambda: 0.1}},
		WAL:           wal.Options{Policy: wal.SyncNever},
		SnapshotEvery: 1,
	}
	d := openDurable(t, dir, cfg)
	if err := d.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDurable(dir, DurableConfig{
		Graph: Config{Weight: sampling.WeightSpec{Kind: sampling.WeightLinearTime}},
		WAL:   wal.Options{Policy: wal.SyncNever},
	})
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("mismatched weight config: err = %v, want ErrSnapshotMismatch", err)
	}
}

func TestDurableConcurrentWritersGroupCommit(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableConfig{WAL: wal.Options{Policy: wal.SyncAlways}})
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	var tsrc atomic.Int64 // shared clock: the frontier rule wants strictly increasing times
	errs := make(chan error, writers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// A writer can draw t then lose the commit race to a later
				// draw, making its batch stale; redraw and retry — the retry
				// also exercises deterministic replay of failed records.
				for {
					e := temporal.Edge{
						Src:  temporal.Vertex(w),
						Dst:  temporal.Vertex(i + 1),
						Time: temporal.Time(tsrc.Add(1)),
					}
					err := d.AppendBatch([]temporal.Edge{e})
					if err == nil {
						break
					}
					if !errors.Is(err, ErrStaleBatch) {
						errs <- fmt.Errorf("writer %d append %d: %w", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	// Readers stay live during ingest.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					d.WalkSeeded(0, temporal.MinTime, 8, seed)
					d.Stats()
				}
			}
		}(uint64(r + 1))
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := d.NumEdges(); got != writers*perWriter {
		t.Fatalf("NumEdges = %d, want %d", got, writers*perWriter)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay after concurrent ingest still lands every edge.
	d2 := openDurable(t, dir, DurableConfig{WAL: wal.Options{}})
	defer d2.Close()
	if got := d2.NumEdges(); got != writers*perWriter {
		t.Fatalf("recovered NumEdges = %d, want %d", got, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		if got := d2.View; got == nil {
			t.Fatal("nil View")
		}
		d2.View(func(g *Graph) {
			if deg := g.LiveDegree(temporal.Vertex(w)); deg != perWriter {
				t.Fatalf("writer %d degree %d, want %d", w, deg, perWriter)
			}
		})
	}
}

func TestDurableDegradedIsSticky(t *testing.T) {
	dir := t.TempDir()
	// A small segment size forces rotation, whose new-segment creation fails
	// once the directory is gone.
	d := openDurable(t, dir, DurableConfig{WAL: wal.Options{Policy: wal.SyncAlways, SegmentBytes: 2048}})
	if err := d.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	// Pull the directory out from under the log: the next append's segment
	// write or fsync fails and the graph must degrade, not corrupt.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, s := range segs {
		os.Remove(s)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// Exhaust until a write actually fails (page cache may absorb a few).
	var err error
	for i := 0; i < 10000; i++ {
		err = d.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: temporal.Time(i + 2)}})
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrDegraded) {
		t.Skipf("could not provoke a WAL failure on this filesystem (err=%v)", err)
	}
	if d.Err() == nil {
		t.Fatal("Err() nil after degradation")
	}
	// Sticky: every subsequent mutation fails fast.
	if err := d.AppendBatch([]temporal.Edge{{Src: 0, Dst: 2, Time: 99999}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append after degradation: %v", err)
	}
	if _, err := d.ExpireBefore(1); !errors.Is(err, ErrDegraded) {
		t.Fatalf("expire after degradation: %v", err)
	}
	// Reads still work.
	_ = d.Stats()
	d.Close()
}

// Stats reports the time range of the live edges: expiring the oldest edge
// raises its low end and deleting the newest lowers its high end, though the
// linear-time anchor and the frontier stay where they were. Vertex 0 keeps
// its two deleted edges as tombstones at both ends of its directory.
func TestDurableStatsTimeRangeIsLive(t *testing.T) {
	d := openDurable(t, t.TempDir(), DurableConfig{})
	defer d.Close()
	edges := []temporal.Edge{{Src: 3, Dst: 1, Time: 10}, {Src: 1, Dst: 2, Time: 11}}
	for at := temporal.Time(12); at <= 20; at++ {
		edges = append(edges, temporal.Edge{Src: 0, Dst: temporal.Vertex(at - 10), Time: at})
	}
	edges = append(edges, temporal.Edge{Src: 2, Dst: 0, Time: 21})
	if err := d.AppendBatch(edges); err != nil {
		t.Fatal(err)
	}
	check := func(step string, edges, deleted int, lo, hi temporal.Time) {
		t.Helper()
		if st := d.Stats(); st.Edges != edges || st.Deleted != deleted || st.TimeLo != lo || st.TimeHi != hi {
			t.Fatalf("%s: %d edges (%d deleted) over [%d, %d], want %d (%d) over [%d, %d]",
				step, st.Edges, st.Deleted, st.TimeLo, st.TimeHi, edges, deleted, lo, hi)
		}
	}
	del := func(edges ...temporal.Edge) {
		t.Helper()
		if err := d.DeleteEdges(edges); err != nil {
			t.Fatal(err)
		}
	}
	check("appended", 12, 0, 10, 21)
	if dropped, err := d.ExpireBefore(11); err != nil || dropped != 1 {
		t.Fatalf("expire: dropped %d, err %v", dropped, err)
	}
	check("oldest expired", 11, 0, 11, 21)
	del(temporal.Edge{Src: 2, Dst: 0, Time: 21}, temporal.Edge{Src: 0, Dst: 10, Time: 20})
	check("two newest deleted", 9, 1, 11, 19)
	del(temporal.Edge{Src: 1, Dst: 2, Time: 11}, temporal.Edge{Src: 0, Dst: 2, Time: 12})
	check("two oldest deleted", 7, 2, 13, 19)
	for at := temporal.Time(13); at <= 19; at++ {
		del(temporal.Edge{Src: 0, Dst: temporal.Vertex(at - 10), Time: at})
	}
	check("all deleted", 0, 0, 0, 0)
	if d.Frontier() != 21 {
		t.Fatalf("frontier %d, want 21", d.Frontier())
	}
}

func TestDurableClosedRejectsMutations(t *testing.T) {
	d := openDurable(t, t.TempDir(), DurableConfig{})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// A write that passed the closed check when Close began is either
// committed or answered ErrClosed, and one answered ErrClosed is not in the
// log. Holding errMu parks the writer between its closed check and its
// enqueue while Close runs; were it queued after Close's last look at the
// queue, it would wait forever.
func TestDurableWriteRacingClose(t *testing.T) {
	for run := 0; run < 20; run++ {
		dir := t.TempDir()
		cfg := DurableConfig{WAL: wal.Options{Policy: wal.SyncNever}, HealInterval: -1}
		d := openDurable(t, dir, cfg)
		d.errMu.Lock()
		wrote := make(chan error, 1)
		go func() { wrote <- d.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}}) }()
		time.Sleep(5 * time.Millisecond) // the writer passes the closed check
		closed := make(chan error, 1)
		go func() { closed <- d.Close() }()
		time.Sleep(20 * time.Millisecond) // Close runs as far as it can
		d.errMu.Unlock()
		var err error
		select {
		case err = <-wrote:
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d: a write racing Close never returned", run)
		}
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("run %d: write racing Close: %v", run, err)
		}
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		want := 0
		if err == nil {
			want = 1
		}
		d = openDurable(t, dir, cfg)
		if got := d.NumEdges(); got != want {
			t.Fatalf("run %d: write answered %v, %d edges logged", run, err, got)
		}
		d.Close()
	}
}

func TestDurableBatchErrorPropagates(t *testing.T) {
	d := openDurable(t, t.TempDir(), DurableConfig{WAL: wal.Options{Policy: wal.SyncNever}})
	defer d.Close()
	var seed []temporal.Edge
	for i := 1; i <= 16; i++ {
		seed = append(seed, temporal.Edge{Src: 0, Dst: temporal.Vertex(i), Time: temporal.Time(i)})
	}
	if err := d.AppendBatch(seed); err != nil {
		t.Fatal(err)
	}
	err := d.DeleteEdges([]temporal.Edge{
		{Src: 0, Dst: 1, Time: 1},
		{Src: 0, Dst: 99, Time: 99},
	})
	var be *BatchError
	if !errors.As(err, &be) || be.Applied != 1 {
		t.Fatalf("err = %v, want *BatchError with Applied=1", err)
	}
	// Stale batches surface their sentinel through the durable path too.
	if err := d.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}}); !errors.Is(err, ErrStaleBatch) {
		t.Fatalf("stale append err = %v, want ErrStaleBatch", err)
	}
}

func TestDurableRejectsCustomWeight(t *testing.T) {
	_, err := OpenDurable(t.TempDir(), DurableConfig{
		Graph: Config{Weight: sampling.WeightSpec{Custom: func(temporal.Time) float64 { return 1 }}},
	})
	if !errors.Is(err, ErrCustomWeight) {
		t.Fatalf("custom weight: err = %v, want ErrCustomWeight", err)
	}
}
