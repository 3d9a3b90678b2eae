package stream

import (
	"bytes"
	"errors"
	"log/slog"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/wal"
	"github.com/tea-graph/tea/internal/xrand"
)

// A directory entry is 64 bytes, holds no per-edge weights, and points at
// one pointer-free arena: what the walk step and index_bytes_per_edge both
// rest on.
func TestSegmentLayout(t *testing.T) {
	if size := unsafe.Sizeof(segment{}); size != 64 {
		t.Fatalf("directory entry is %d bytes, want 64", size)
	}
	typ := reflect.TypeOf(segment{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Slice && f.Name != "arena" {
			t.Errorf("segment field %s is a slice; only the arena may be", f.Name)
		}
	}
	if f, _ := typ.FieldByName("arena"); f.Type != reflect.TypeOf([]uint64(nil)) {
		t.Fatalf("arena is %v, want []uint64", f.Type)
	}
}

// multiSegmentGraph gives vertex 0 several segments, tombstones included.
func multiSegmentGraph(t *testing.T, spec sampling.WeightSpec) *Graph {
	t.Helper()
	g := mustNew(t, Config{Weight: spec})
	next := temporal.Time(1)
	for _, n := range []int{300, 90, 40, 7, 2} {
		batch := make([]temporal.Edge, n)
		for i := range batch {
			batch[i] = temporal.Edge{Src: 0, Dst: temporal.Vertex(1 + i%9), Time: next}
			next++
		}
		if err := g.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.DeleteEdges([]temporal.Edge{{Src: 0, Dst: 1, Time: 1}, {Src: 0, Dst: 2, Time: 302}}); err != nil {
		t.Fatal(err)
	}
	if g.Segments(0) < 4 || g.NumDeleted() != 2 {
		t.Fatalf("%d segments, %d tombstones: not the shape this test needs", g.Segments(0), g.NumDeleted())
	}
	return g
}

func TestSampleStepAllocatesNothing(t *testing.T) {
	g := multiSegmentGraph(t, sampling.Exponential(0.01))
	r := xrand.New(3)
	for _, after := range []temporal.Time{temporal.MinTime, 150, 395, 436} {
		if n := testing.AllocsPerRun(200, func() { g.SampleStep(0, after, r) }); n != 0 {
			t.Errorf("SampleStep(after %d) allocates %v objects per step", after, n)
		}
	}
}

func TestNewSegmentIsOneAllocation(t *testing.T) {
	g := mustNew(t, Config{Weight: sampling.Exponential(0.01)})
	build := func() {
		s := newSegment(100, 0)
		for i := 0; i < 100; i++ {
			s.put(i, temporal.Vertex(i), temporal.Time(1000-i))
		}
		g.finish(&s, 0)
	}
	build() // sizes the writer's scratch
	if n := testing.AllocsPerRun(50, build); n != 1 {
		t.Fatalf("a new segment costs %v heap allocations, want 1", n)
	}
}

// The committer builds every segment — appends, LSM merges, compaction,
// expiry — before it takes the write lock, while walkers read the
// published graph.
func TestCommitGroupBuildsOffLock(t *testing.T) {
	d := openDurable(t, t.TempDir(), DurableConfig{WAL: wal.Options{Policy: wal.SyncNever}})
	defer d.Close()
	stop := make(chan struct{})
	var walkers sync.WaitGroup
	for w := 0; w < 2; w++ {
		walkers.Add(1)
		go func(w int) {
			defer walkers.Done()
			for seed := uint64(w); ; seed += 2 {
				select {
				case <-stop:
					return
				default:
				}
				d.WalkSeeded(temporal.Vertex(seed%3), temporal.MinTime, 8, seed)
			}
		}(w)
	}
	defer func() {
		close(stop)
		walkers.Wait()
	}()
	var builds, locked atomic.Int64
	d.View(func(g *Graph) {
		g.onBuild = func() {
			builds.Add(1)
			// Only the committer writes, and it is the caller here: the read
			// lock is unavailable exactly when the committer holds the lock.
			if !d.mu.TryRLock() {
				locked.Add(1)
				return
			}
			d.mu.RUnlock()
		}
	})
	next := temporal.Time(1)
	var first []temporal.Edge
	for b := 0; b < 40; b++ {
		batch := make([]temporal.Edge, 1+b%7)
		for i := range batch {
			batch[i] = temporal.Edge{Src: temporal.Vertex(i % 3), Dst: temporal.Vertex(b), Time: next}
			next++
		}
		if b == 0 {
			first = batch
		}
		if err := d.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.DeleteEdges(first); err != nil { // compacts vertex 0
		t.Fatal(err)
	}
	if _, err := d.ExpireBefore(next / 2); err != nil {
		t.Fatal(err)
	}
	if builds.Load() == 0 {
		t.Fatal("no segment was built")
	}
	if n := locked.Load(); n != 0 {
		t.Fatalf("%d of %d segment builds ran under the write lock", n, builds.Load())
	}
}

func TestVertexIDBound(t *testing.T) {
	g := mustNew(t, Config{})
	for _, e := range []temporal.Edge{
		{Src: 4294967295, Dst: 1, Time: 5},
		{Src: 1, Dst: maxVertexID + 1, Time: 5},
	} {
		if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 4}, e}); !errors.Is(err, ErrVertexRange) {
			t.Fatalf("append %v: err = %v, want ErrVertexRange", e, err)
		}
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("a refused batch left %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if _, err := New(Config{NumVertices: maxVertexID + 2}); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("New with %d vertices: err = %v, want ErrVertexRange", maxVertexID+2, err)
	}

	// A durable graph refuses before logging. A batch already in the log
	// (written before the bound existed) is refused again on every replay,
	// like a stale one, and the rest of the log recovers.
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]temporal.Edge{
		{{Src: 0, Dst: 1, Time: 1}},
		{{Src: 4294967295, Dst: 1, Time: 2}},
		{{Src: 1, Dst: 0, Time: 3}},
	} {
		if _, err := log.Append(wal.Entry{Type: wal.RecEdgeBatch, Payload: encodeEdgeList(b)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	d := openDurable(t, dir, DurableConfig{WAL: wal.Options{Policy: wal.SyncAlways}, Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	defer d.Close()
	if d.NumEdges() != 2 || d.NumVertices() != 2 || d.Recovery().Replayed != 3 {
		t.Fatalf("replay: %d edges, %d vertices, %d records", d.NumEdges(), d.NumVertices(), d.Recovery().Replayed)
	}
	if !strings.Contains(logged.String(), "level=WARN") || !strings.Contains(logged.String(), "lsn=2") {
		t.Fatalf("replay refused record 2 without a warning; log:\n%s", logged.String())
	}
	lsn := d.Log().LastLSN()
	if err := d.AppendBatch([]temporal.Edge{{Src: 4294967295, Dst: 0, Time: 9}}); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("durable append: err = %v, want ErrVertexRange", err)
	}
	if got := d.Log().LastLSN(); got != lsn {
		t.Fatalf("the refused batch was logged: LSN %d → %d", lsn, got)
	}
}

// A txn copies a published directory and tombstone bitmap once and edits
// its copies: deleting k edges of an n-slot segment costs O(k + n/64)
// words, not O(k·n/64), and the published bitmap never changes.
func TestDeleteBatchCopiesOnce(t *testing.T) {
	const n = 1 << 15
	g := mustNew(t, Config{})
	batch := make([]temporal.Edge, n)
	for i := range batch {
		batch[i] = temporal.Edge{Src: 0, Dst: temporal.Vertex(1 + i%7), Time: temporal.Time(1 + i)}
	}
	if err := g.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if g.Segments(0) != 1 {
		t.Fatalf("%d segments, want 1", g.Segments(0))
	}
	// Two batches of n/10 deletions each stay below the compaction
	// threshold.
	for round := 0; round < 2; round++ {
		var del []temporal.Edge
		for i := round; i < n; i += 20 {
			del = append(del, batch[i])
		}
		var published []uint64
		if d := g.verts[0][0].dead; d != nil {
			published = d.bits
		}
		before := slices.Clone(published)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := g.DeleteEdges(del); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		// One bitmap is n/8 bytes; a copy per deletion would be n/8·k.
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 64<<10 {
			t.Fatalf("round %d: deleting %d edges of a %d-slot segment allocated %d bytes", round, len(del), n, grew)
		}
		if !slices.Equal(published, before) {
			t.Fatalf("round %d: the deletion edited the published bitmap", round)
		}
		if g.Segments(0) != 1 || g.NumDeleted() != (round+1)*len(del) {
			t.Fatalf("round %d: %d segments, %d deleted", round, g.Segments(0), g.NumDeleted())
		}
	}
}

// One txn staging a mixed sequence — appends that grow the vertex table,
// deletions that compact, expiry, refused batches — installs exactly what
// the same operations give one at a time, and readers see nothing of it
// before commit.
func TestTxnMatchesOneByOne(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		spec := []sampling.WeightSpec{{Kind: sampling.WeightLinearRank}, sampling.Exponential(0.05)}[seed%2]
		staged, direct := mustNew(t, Config{Weight: spec}), mustNew(t, Config{Weight: spec})
		r := xrand.New(seed)
		var live []temporal.Edge
		next := temporal.Time(1)
		warm := func(g *Graph) {
			for b := 0; b < 10; b++ {
				batch := []temporal.Edge{{Src: temporal.Vertex(b % 4), Dst: 1, Time: next}}
				next++
				live = append(live, batch...)
				if err := g.AppendBatch(batch); err != nil {
					t.Fatal(err)
				}
				if g == staged {
					direct.AppendBatch(batch)
				}
			}
		}
		warm(staged)
		before := walkHash(staged)
		tx := staged.begin()
		for op := 0; op < 40; op++ {
			switch k := r.IntN(10); {
			case k < 6:
				batch := make([]temporal.Edge, 1+r.IntN(12))
				for i := range batch {
					batch[i] = temporal.Edge{Src: temporal.Vertex(r.IntN(6 + op)), Dst: temporal.Vertex(r.IntN(8)), Time: next + temporal.Time(r.IntN(3))}
				}
				if r.IntN(8) == 0 {
					batch[0].Time = 0 // refused as stale by both
				}
				errA, errB := tx.appendBatch(batch), direct.AppendBatch(batch)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d op %d: staged append %v, direct %v", seed, op, errA, errB)
				}
				if errA == nil {
					live = append(live, batch...)
					next += 3
				}
			case k < 9 && len(live) > 0:
				var del []temporal.Edge
				for i := 0; i < 1+r.IntN(4) && len(live) > 0; i++ {
					j := r.IntN(len(live))
					del = append(del, live[j])
					live = append(live[:j], live[j+1:]...)
				}
				errA, errB := tx.deleteEdges(del), direct.DeleteEdges(del)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d op %d: staged delete %v, direct %v", seed, op, errA, errB)
				}
			default:
				horizon := next - 20
				if a, b := tx.expireBefore(horizon), direct.ExpireBefore(horizon); a != b {
					t.Fatalf("seed %d op %d: expiry dropped %d staged, %d direct", seed, op, a, b)
				}
				kept := live[:0]
				for _, e := range live {
					if e.Time >= horizon {
						kept = append(kept, e)
					}
				}
				live = kept
			}
		}
		if got := walkHash(staged); got != before {
			t.Fatalf("seed %d: readers saw the txn before commit", seed)
		}
		tx.commit()
		requireSameGraph(t, direct, staged)
	}
}

// The writer's scratch follows the batches: one huge batch does not pin its
// sorted copy, staged list, weight buffer or HPAT block scratch for the
// graph's life, and steady batches reuse theirs: the sorted copy and staged
// list without reallocating, the weight buffer and block scratch without
// ever being dropped.
func TestWriterScratchFollowsBatches(t *testing.T) {
	r := xrand.New(9)
	random := func(n, vertices int) func(temporal.Time) []temporal.Edge {
		return func(next temporal.Time) []temporal.Edge {
			batch := make([]temporal.Edge, n)
			for i := range batch {
				batch[i] = temporal.Edge{Src: temporal.Vertex(r.IntN(vertices)), Dst: temporal.Vertex(r.IntN(vertices)), Time: next + temporal.Time(r.IntN(50))}
			}
			return batch
		}
	}
	fromVertex0 := func(n int) func(temporal.Time) []temporal.Edge {
		return func(next temporal.Time) []temporal.Edge {
			batch := make([]temporal.Edge, n)
			for i := range batch {
				batch[i] = temporal.Edge{Src: 0, Dst: temporal.Vertex(1 + i%1000), Time: next + temporal.Time(i%50)}
			}
			return batch
		}
	}
	cases := []struct {
		name         string
		huge, steady func(temporal.Time) []temporal.Edge
		hugeSegment  int // the largest segment the huge batch builds, if it matters
	}{
		{name: "200000-random-then-1000", huge: random(200_000, 50_000), steady: random(1000, 300)},
		{name: "1048576-to-vertex-0-then-1", huge: fromVertex0(1 << 20), steady: fromVertex0(1), hugeSegment: 1 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mustNew(t, Config{})
			next := temporal.Time(1)
			appendBatch := func(batch func(temporal.Time) []temporal.Edge) {
				t.Helper()
				if err := g.AppendBatch(batch(next)); err != nil {
					t.Fatal(err)
				}
				next += 50
			}
			appendBatch(tc.huge)
			if cap(g.sorted) < 200_000 {
				t.Fatalf("sorted scratch cap %d after the huge batch", cap(g.sorted))
			}
			if cap(g.weights) < tc.hugeSegment || g.scratch.Len() < tc.hugeSegment/2 {
				t.Fatalf("weights cap %d, block scratch %d after a %d-edge segment", cap(g.weights), g.scratch.Len(), tc.hugeSegment)
			}
			// The first steady batch releases what the huge one sized (the
			// sorted copy, and at its begin the weights and block scratch),
			// the second the staged list (begin trims it by the txn before);
			// then all of them hold.
			appendBatch(tc.steady)
			appendBatch(tc.steady)
			if cap(g.sorted) > scratchFloor || cap(g.tx.staged) > scratchFloor || cap(g.weights) > scratchFloor || g.scratch.Len() > scratchFloor {
				t.Fatalf("scratch kept after steady batches: sorted cap %d, staged cap %d, weights cap %d, block scratch %d",
					cap(g.sorted), cap(g.tx.staged), cap(g.weights), g.scratch.Len())
			}
			sorted, staged := unsafe.SliceData(g.sorted), unsafe.SliceData(g.tx.staged)
			weights, block := cap(g.weights), g.scratch.Len()
			for b := 0; b < 100; b++ {
				appendBatch(tc.steady)
				if unsafe.SliceData(g.sorted) != sorted || unsafe.SliceData(g.tx.staged) != staged {
					t.Fatalf("steady batch %d reallocated the writer's scratch", b)
				}
				if cap(g.weights) < weights || g.scratch.Len() < block {
					t.Fatalf("steady batch %d dropped the weights (cap %d → %d) or block scratch (%d → %d)", b, weights, cap(g.weights), block, g.scratch.Len())
				}
				weights, block = cap(g.weights), g.scratch.Len()
			}
		})
	}
}

// A deletion batch's copy sets do not keep their buckets: after one
// 200,000-edge DeleteEdges, the next txn starts with fresh maps, while
// small deletion batches keep reusing theirs.
func TestTxnCopySetsFollowDeletions(t *testing.T) {
	const n = 200_000
	g := mustNew(t, Config{})
	// Two edges per vertex: the batch deletes edges[:n], the small
	// deletions take from edges[n:].
	edges := make([]temporal.Edge, 2*n)
	for i := range edges {
		edges[i] = temporal.Edge{Src: temporal.Vertex(i % n), Dst: temporal.Vertex((i + 1) % n), Time: temporal.Time(1 + i%50)}
	}
	if err := g.AppendBatch(edges); err != nil {
		t.Fatal(err)
	}
	if err := g.DeleteEdges(edges[:n]); err != nil {
		t.Fatal(err)
	}
	if len(g.tx.copiedDirs) < n || len(g.tx.copiedBits) < n {
		t.Fatalf("copy sets hold %d dirs and %d bitmaps after deleting %d edges", len(g.tx.copiedDirs), len(g.tx.copiedBits), n)
	}
	if err := g.AppendBatch([]temporal.Edge{{Src: 0, Dst: 1, Time: 100}}); err != nil {
		t.Fatal(err)
	}
	if g.tx.copiedDirs != nil || g.tx.copiedBits != nil {
		t.Fatal("the txn after a 200,000-edge deletion kept its copy sets")
	}
	// Steady small deletions reuse one map of each kind.
	deleteOne := func(i int) {
		t.Helper()
		if err := g.DeleteEdges(edges[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	deleteOne(n)
	dirs, bits := reflect.ValueOf(g.tx.copiedDirs).UnsafePointer(), reflect.ValueOf(g.tx.copiedBits).UnsafePointer()
	for i := n + 1; i < n+100; i++ {
		deleteOne(i)
		if reflect.ValueOf(g.tx.copiedDirs).UnsafePointer() != dirs || reflect.ValueOf(g.tx.copiedBits).UnsafePointer() != bits {
			t.Fatalf("deletion %d reallocated a copy set", i)
		}
	}
}
