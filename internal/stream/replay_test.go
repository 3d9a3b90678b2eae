package stream

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"github.com/tea-graph/tea/internal/edgeio"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/wal"
	"github.com/tea-graph/tea/internal/xrand"
)

// appendOneByOne is the batch-at-a-time append the planner replaced, kept
// as replay's oracle: it groups the batch by source with a comparison sort
// and appends each source's run as one new segment, built at once, that
// absorbs its elder while it is at least as large.
func appendOneByOne(t *txn, edges []temporal.Edge) error {
	if len(edges) == 0 {
		return nil
	}
	oldest, newest, maxV, err := checkBatch(edges, t.frontier)
	if err != nil {
		return err
	}
	if int(maxV) >= len(t.verts) {
		t.grow(int(maxV) + 1)
	}
	if !t.hasEdges {
		t.minTime, t.hasEdges = oldest, true
	}
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, func(a, b temporal.Edge) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Time, a.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && sorted[hi].Src == sorted[lo].Src {
			hi++
		}
		old := t.vertex(sorted[lo].Src)
		n, absorbed := hi-lo, 0
		for absorbed < len(old) && n >= old[absorbed].len() {
			n += old[absorbed].len() - old[absorbed].deadCount()
			absorbed++
		}
		older, _ := slots(old[absorbed:])
		seg, _ := t.build(&t.g.builder, sorted[lo:hi], old[:absorbed], temporal.MinTime, older)
		segs := append([]segment{seg}, old[absorbed:]...)
		t.g.rescale(segs)
		t.install(sorted[lo].Src, segs)
		lo = hi
	}
	t.frontier = newest
	return nil
}

// applyOneByOne applies one logged record to g in a txn of its own, edge
// batches through the oracle and everything else as replay does.
func applyOneByOne(t *testing.T, g *Graph, e wal.Entry) {
	t.Helper()
	tx := g.begin()
	if e.Type == wal.RecEdgeBatch {
		edges, err := edgeio.DecodeList(nil, e.Payload)
		if err != nil {
			t.Fatal(err)
		}
		appendOneByOne(tx, edges)
	} else if _, err := tx.apply(e.Type, e.Payload); err != nil && !isOpError(err) {
		t.Fatal(err)
	}
	tx.commit()
}

// isOpError reports an error a logged mutation may meet: a deletion of a
// missing edge.
func isOpError(err error) bool {
	var be *BatchError
	return errors.As(err, &be)
}

// replayLog scripts n records of a log over a few vertices: fresh batches
// with tied times, stale and out-of-range batches (refused), empty ones,
// deletions — enough, on vertices of a few edges, to compact them — and
// deletions of missing edges, expiries, snapshot marks and no-ops.
func replayLog(seed uint64, n int) []wal.Entry {
	r := xrand.New(seed)
	var log []wal.Entry
	var appended []temporal.Edge
	now := temporal.Time(0)
	batch := func(edges []temporal.Edge) {
		log = append(log, wal.Entry{Type: wal.RecEdgeBatch, Payload: edgeio.AppendList(nil, edges)})
	}
	fresh := func(size int) []temporal.Edge {
		edges := make([]temporal.Edge, size)
		for i := range edges {
			edges[i] = temporal.Edge{Src: temporal.Vertex(r.IntN(9)), Dst: temporal.Vertex(r.IntN(12)), Time: now + 1 + temporal.Time(r.IntN(3))}
		}
		return edges
	}
	for len(log) < n {
		switch k := r.IntN(100); {
		case k < 55:
			edges := fresh(1 + r.IntN(14))
			batch(edges)
			appended = append(appended, edges...)
			now += 3
		case k < 60 && now > 0:
			edges := fresh(1 + r.IntN(3))
			edges[r.IntN(len(edges))].Time = 1 + temporal.Time(r.IntN(int(now)))
			batch(edges)
		case k < 63:
			edges := fresh(1 + r.IntN(3))
			edges[0].Dst = maxVertexID + 1
			batch(edges)
		case k < 65:
			batch(nil)
		case k < 80 && len(appended) > 0:
			var del []temporal.Edge
			for range 1 + r.IntN(4) {
				del = append(del, appended[r.IntN(len(appended))])
			}
			if r.IntN(5) == 0 {
				del = append(del, temporal.Edge{Src: 3, Dst: 99, Time: 1})
			}
			log = append(log, wal.Entry{Type: wal.RecDeleteBatch, Payload: edgeio.AppendList(nil, del)})
		case k < 88 && now > 0:
			h := 1 + temporal.Time(r.IntN(int(now)))
			log = append(log, wal.Entry{Type: wal.RecExpire, Payload: binary.LittleEndian.AppendUint64(nil, uint64(h))})
		case k < 94:
			log = append(log, wal.Entry{Type: wal.RecSnapshotMark, Payload: binary.LittleEndian.AppendUint64(nil, 0)})
		default:
			log = append(log, wal.Entry{Type: wal.RecNoop})
		}
	}
	return log
}

// Replay gathers records of every type into windows, each staged in one
// txn by applyLog, which appends the batches admitted before each other
// record in one planned pass; a live commit stages its group through
// applyLog too. The graph replay recovers — from the log alone, or from a
// snapshot and the log's suffix, so windows start on vertices that already
// have segments, some with tombstones — and the graph live commits of the
// log in groups of 7 and of maxGroup leave both equal the records applied
// one at a time by the batch-at-a-time oracle: every arena word, mass,
// rank and tombstone, the largest segment, the auxiliary index, the seeded
// walks and the snapshot bytes.
func TestReplayMatchesOneByOne(t *testing.T) {
	specs := []sampling.WeightSpec{
		{Kind: sampling.WeightUniform},
		{Kind: sampling.WeightLinearTime},
		{Kind: sampling.WeightLinearRank},
		sampling.Exponential(0.05),
	}
	for _, spec := range specs {
		for seed := uint64(1); seed <= 6; seed++ {
			log := replayLog(seed, 400)
			type mode struct{ snapAt, group int } // group > 0: live commits of that size
			modes := []mode{{0, 0}, {len(log) / 3, 0}, {len(log) - 1, 0}, {0, 7}, {0, maxGroup}}
			for _, m := range modes {
				snapAt := m.snapAt
				name := fmt.Sprintf("%v/seed%d/snapshot%d", spec.Kind, seed, snapAt)
				if m.group > 0 {
					name = fmt.Sprintf("%v/seed%d/live%d", spec.Kind, seed, m.group)
				}
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					cfg := DurableConfig{Graph: Config{Weight: spec}, WAL: wal.Options{Policy: wal.SyncNever}}
					var d *DurableGraph
					if m.group > 0 {
						d = openDurable(t, dir, cfg)
						for lo := 0; lo < len(log); lo += m.group {
							var group []*ingestReq
							for _, e := range log[lo:min(lo+m.group, len(log))] {
								group = append(group, &ingestReq{typ: e.Type, payload: e.Payload, done: make(chan struct{})})
							}
							d.commitGroup(group)
						}
					} else {
						l, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
						if err != nil {
							t.Fatal(err)
						}
						if _, err := l.Append(log...); err != nil {
							t.Fatal(err)
						}
						if err := l.Close(); err != nil {
							t.Fatal(err)
						}
					}
					want := mustNew(t, Config{Weight: spec})
					for i, e := range log {
						if i == snapAt && i > 0 {
							// LSNs count from 1: the snapshot covers log[:i].
							if err := WriteSnapshotFile(filepath.Join(dir, snapshotFileName(uint64(i))), want, uint64(i)); err != nil {
								t.Fatal(err)
							}
						}
						applyOneByOne(t, want, e)
					}
					if d == nil {
						d = openDurable(t, dir, cfg)
					}
					defer d.Close()
					if got := d.Recovery().SnapshotLSN; got != uint64(snapAt) {
						t.Fatalf("recovered from snapshot %d, want %d", got, snapAt)
					}
					var wantSnap, gotSnap bytes.Buffer
					if err := want.WriteSnapshot(&wantSnap, 1); err != nil {
						t.Fatal(err)
					}
					d.View(func(g *Graph) {
						requireSameGraph(t, want, g)
						if err := g.WriteSnapshot(&gotSnap, 1); err != nil {
							t.Fatal(err)
						}
					})
					if !bytes.Equal(wantSnap.Bytes(), gotSnap.Bytes()) {
						t.Fatal("replayed graph writes different snapshot bytes")
					}
				})
			}
		}
	}
}

// BenchmarkDurableRecovery times OpenDurable replaying a log of 1,000
// batches of 1,000 edges over 200,000 vertices, sources skewed towards low
// ids so some vertices gather deep segment directories: replay's windows,
// grouping, planning and segment builds. The mixed log also deletes one
// edge every 50 batches, so each window applies deletions between its
// planned appends.
func BenchmarkDurableRecovery(b *testing.B) {
	for _, deleteEvery := range []int{0, 50} {
		name := "edges"
		if deleteEvery > 0 {
			name = "mixed"
		}
		b.Run(name, func(b *testing.B) { benchmarkRecovery(b, deleteEvery) })
	}
}

// benchmarkRecovery times recovery of BenchmarkDurableRecovery's log, with
// a one-edge deletion record after every deleteEvery batches unless it is 0.
func benchmarkRecovery(b *testing.B, deleteEvery int) {
	const vertices, batches, size = 200_000, 1000, 1000
	dir := b.TempDir()
	l, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	edges := make([]temporal.Edge, size)
	now := temporal.Time(0)
	deleted := 0
	for i := range batches {
		for i := range edges {
			now++
			edges[i] = temporal.Edge{Src: temporal.Vertex(r.IntN(1 + r.IntN(vertices))), Dst: temporal.Vertex(r.IntN(vertices)), Time: now}
		}
		recs := []wal.Entry{{Type: wal.RecEdgeBatch, Payload: edgeio.AppendList(nil, edges)}}
		if deleteEvery > 0 && (i+1)%deleteEvery == 0 {
			recs = append(recs, wal.Entry{Type: wal.RecDeleteBatch, Payload: edgeio.AppendList(nil, edges[:1])})
			deleted++
		}
		if _, err := l.Append(recs...); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	cfg := DurableConfig{
		Graph: Config{Weight: sampling.Exponential(50 / float64(now)), NumVertices: vertices},
		WAL:   wal.Options{Policy: wal.SyncNever},
	}
	b.ResetTimer()
	for range b.N {
		d, err := OpenDurable(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := d.NumEdges(); got != batches*size-deleted {
			b.Fatalf("recovered %d edges, want %d", got, batches*size-deleted)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(batches*size)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
