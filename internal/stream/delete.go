package stream

import (
	"errors"
	"fmt"
	"slices"

	"github.com/tea-graph/tea/internal/temporal"
)

// Edge deletion is the extension §4.4 of the paper lists as future work
// ("deleting or changing vertices or edges are not supported. We plan to add
// support for these features"). The design keeps the HPAT segments intact:
//
//   - a deleted edge is tombstoned in its segment (bitmap + counter; a txn
//     copies a published bitmap once and edits its copy, so published ones
//     never change);
//   - sampling proposes from the unchanged segment tables and re-proposes
//     when it hits a tombstone — classic rejection against the live
//     sub-distribution, so live edges keep exactly their relative
//     probabilities;
//   - when tombstones accumulate past CompactionThreshold of a vertex's
//     edges, the vertex is compacted: segments are rebuilt without the dead
//     edges (amortized, like the LSM merges).
//
// A bounded retry loop plus an exact fallback scan keeps sampling correct
// even when almost everything is deleted.
//
// One documented approximation: rank-based weights (WeightLinearRank) are
// assigned when an edge is ingested and are not re-derived when an *older*
// edge is deleted, so surviving ranks may be off by the number of deleted
// elders until the vertex compacts (compaction recomputes ranks over the
// live set). Time-based and uniform weights are unaffected — they depend
// only on the edge itself.

// ErrEdgeNotFound is returned when a deletion cannot locate a live matching
// edge.
var ErrEdgeNotFound = errors.New("stream: edge not found (or already deleted)")

// CompactionThreshold is the tombstone fraction above which a vertex is
// rebuilt without its deleted edges.
const CompactionThreshold = 0.25

// deleteRetryCap bounds tombstone rejection before the exact fallback scan.
const deleteRetryCap = 64

// BatchError reports a batch mutation that stopped partway: operations
// before Applied succeeded and are in effect; the one at index Applied
// failed with Err. errors.Is/As see through to the cause.
type BatchError struct {
	// Applied is the count of batch entries applied before the failure —
	// equivalently, the index of the entry that failed.
	Applied int
	// Err is the failure for entry Applied.
	Err error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("stream: batch entry %d failed (first %d applied): %v", e.Applied, e.Applied, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// DeleteEdges tombstones the given edges (matched by exact src, dst, and
// time; one occurrence per request entry). The first unmatched edge aborts
// with a *BatchError wrapping ErrEdgeNotFound and reporting how many entries
// of the batch were applied. Deletions are idempotent while the tombstones
// survive — re-deleting an already-deleted edge is a no-op — so retrying the
// whole batch after fixing the offending entry is safe. (Compaction
// eventually discards tombstones, after which a re-delete of that edge
// reports ErrEdgeNotFound again; retry promptly.)
func (g *Graph) DeleteEdges(edges []temporal.Edge) error {
	t := g.begin()
	err := t.deleteEdges(edges)
	t.commit()
	return err
}

// deleteEdges stages DeleteEdges; the entries before a failure stay staged.
func (t *txn) deleteEdges(edges []temporal.Edge) error {
	for i, e := range edges {
		if err := t.deleteOne(e); err != nil {
			return &BatchError{Applied: i, Err: fmt.Errorf("%w: %v", err, e)}
		}
	}
	return nil
}

func (t *txn) deleteOne(e temporal.Edge) error {
	segs := t.vertex(e.Src)
	tombstoned := false
	for si := len(segs) - 1; si >= 0; si-- {
		s := &segs[si]
		if e.Time > s.newestTime() || e.Time < s.oldestTime() {
			continue
		}
		// Times are newest-first within a segment: find the run with this
		// timestamp, then match the destination among live slots.
		for i := s.newerThan(e.Time); i < s.len() && s.ts(i) == e.Time; i++ {
			if s.dst(i) != e.Dst {
				continue
			}
			if s.isDeleted(i) {
				// An exact match that is already tombstoned: remember it so a
				// retried batch treats the re-delete as an idempotent no-op
				// instead of a spurious ErrEdgeNotFound.
				tombstoned = true
				continue
			}
			segs = t.ownDir(segs)
			segs[si].tombstone(i, t)
			t.install(e.Src, segs)
			t.maybeCompact(e.Src)
			return nil
		}
	}
	if tombstoned {
		return nil
	}
	return ErrEdgeNotFound
}

// isDeleted reports whether slot i is tombstoned.
func (s *segment) isDeleted(i int) bool {
	return s.dead != nil && s.dead.bits[i/64]&(1<<(i%64)) != 0
}

// deadCount returns the segment's tombstoned slots.
func (s *segment) deadCount() int {
	if s.dead == nil {
		return 0
	}
	return s.dead.count
}

// ownDir returns a directory the txn may edit: segs itself if the txn
// copied it, else its copy. Published directories are never edited.
func (t *txn) ownDir(segs []segment) []segment {
	if _, ok := t.copiedDirs[&segs[0]]; ok {
		return segs
	}
	segs = slices.Clone(segs)
	if t.copiedDirs == nil {
		t.copiedDirs = make(map[*segment]struct{})
	}
	t.copiedDirs[&segs[0]] = struct{}{}
	return segs
}

// tombstone marks slot i deleted in a segment of a directory t owns. The
// bitmap is copied the first time t edits it; published bitmaps are never
// edited.
func (s *segment) tombstone(i int, t *txn) {
	if _, ok := t.copiedBits[s.dead]; !ok {
		next := &tombstones{bits: make([]uint64, (s.len()+63)/64)}
		if s.dead != nil {
			copy(next.bits, s.dead.bits)
			next.count = s.dead.count
		}
		if t.copiedBits == nil {
			t.copiedBits = make(map[*tombstones]struct{})
		}
		t.copiedBits[next] = struct{}{}
		s.dead = next
	}
	s.dead.bits[i/64] |= 1 << (i % 64)
	s.dead.count++
}

// liveWithin counts live edges among the k newest slots of the segment.
func (s *segment) liveWithin(k int) int {
	if s.dead == nil {
		return k
	}
	live := k
	for i := 0; i < k; i++ {
		if s.isDeleted(i) {
			live--
		}
	}
	return live
}

// maybeCompact rebuilds the vertex without tombstones once they pass the
// threshold.
func (t *txn) maybeCompact(u temporal.Vertex) {
	if n, dead := slots(t.vertex(u)); dead > 0 && float64(dead) >= CompactionThreshold*float64(n) {
		t.compactVertex(u)
	}
}

// CompactVertex eagerly rebuilds u's segments without tombstoned edges.
// Usually invoked automatically; exposed for tests and maintenance tooling.
func (g *Graph) CompactVertex(u temporal.Vertex) {
	t := g.begin()
	if _, dead := slots(t.vertex(u)); dead > 0 {
		t.compactVertex(u)
	}
	t.commit()
}

// compactVertex rebuilds u's live edges into one segment; a vertex with none
// left keeps no segment.
func (t *txn) compactVertex(u temporal.Vertex) {
	segs := t.vertex(u)
	if len(segs) == 0 {
		return
	}
	var compacted []segment
	if seg, ok := t.build(nil, segs, temporal.MinTime, 0); ok {
		compacted = []segment{seg} // a lone segment's scale is 1
	}
	t.install(u, compacted)
}

// NumDeleted returns the live tombstone count across the graph.
func (g *Graph) NumDeleted() int { return g.numDeleted }

// LiveDegree returns u's out-degree excluding tombstoned edges.
func (g *Graph) LiveDegree(u temporal.Vertex) int {
	if int(u) >= len(g.verts) {
		return 0
	}
	n, dead := slots(g.verts[u])
	return n - dead
}

// LiveCandidateCount returns |Γ_after(u)| counting only live edges.
func (g *Graph) LiveCandidateCount(u temporal.Vertex, after temporal.Time) int {
	if int(u) >= len(g.verts) {
		return 0
	}
	count := 0
	for i := range g.verts[u] {
		s := &g.verts[u][i]
		if s.oldest > after {
			count += s.len() - s.deadCount()
			continue
		}
		return count + s.liveWithin(s.newerThan(after))
	}
	return count
}
