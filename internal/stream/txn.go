package stream

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/tea-graph/tea/internal/hpat"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
)

// txn stages mutations aside from the published graph. It reads the graph
// freely — only the txn's owner ever writes it — and keeps every directory
// it changes to itself, so building segments needs no lock; commit
// installs the staged directories, the only step readers must be kept out
// of. A DurableGraph stages a whole group commit in one txn and holds its
// write lock only for commit.
type txn struct {
	g *Graph
	// verts is the published vertex table, or a larger copy once the txn
	// must grow it; the staged directories apply over it at commit.
	verts  [][]segment
	staged []stagedVertex
	// at[u] is 1 + u's index in staged, 0 while u is unstaged. It lasts
	// across txns: begin zeroes the entries the last one used.
	at []int32
	// Deletions copy a published directory or tombstone bitmap the first
	// time they edit it; these are the copies, which no reader sees before
	// commit, so later deletions in the txn edit them in place.
	copiedDirs map[*segment]struct{}
	copiedBits map[*tombstones]struct{}

	frontier temporal.Time
	minTime  temporal.Time
	hasEdges bool
	maxSeg   int
	largest  int // the largest segment this txn built
	aux      *hpat.AuxIndex
}

// stagedVertex is u's directory as the txn leaves it. live and dead are
// the published directory's counts, taken when u is first staged: commit
// moves the graph's totals by the staged directory's difference from them.
type stagedVertex struct {
	u          temporal.Vertex
	segs       []segment
	live, dead int
}

// scratchSlack bounds how far the writer's scratch may outgrow the txn
// that last used it: a buffer more than scratchSlack times larger (and past
// scratchFloor elements) is dropped, so one huge batch does not pin its
// scratch for the graph's life while steady batches reuse theirs.
const (
	scratchSlack = 4
	scratchFloor = 4096
)

// reuse returns buf emptied for the next batch, or nil when its capacity is
// far above the used elements the last batch needed.
func reuse[S ~[]E, E any](buf S, used int) S {
	if cap(buf) > max(scratchSlack*used, scratchFloor) {
		return nil
	}
	return buf[:0]
}

// reuseMap returns m emptied for the next txn, or nil when the last one put
// more than scratchFloor entries in it: Go maps never shrink, so clearing
// would keep the buckets of the largest deletion batch.
func reuseMap[M ~map[K]V, K comparable, V any](m M) M {
	if len(m) > scratchFloor {
		return nil
	}
	clear(m)
	return m
}

// begin starts a txn over the graph's current state.
func (g *Graph) begin() *txn {
	t := &g.tx
	for _, s := range t.staged {
		t.at[s.u] = 0
	}
	clear(t.staged)
	// Segment builds size the weight buffer and the HPAT block scratch to
	// the largest segment of the txn; they follow the last txn's largest.
	g.weights = reuse(g.weights, t.largest)
	if g.scratch.Len() > max(scratchSlack*t.largest, scratchFloor) {
		g.scratch = hpat.BlockScratch{}
	}
	*t = txn{
		g:          g,
		verts:      g.verts,
		staged:     reuse(t.staged, len(t.staged)),
		at:         t.at,
		copiedDirs: reuseMap(t.copiedDirs),
		copiedBits: reuseMap(t.copiedBits),
		frontier:   g.frontier,
		minTime:    g.minTime,
		hasEdges:   g.hasEdges,
		maxSeg:     g.maxSeg,
		aux:        g.aux,
	}
	return t
}

// commit installs everything the txn staged. The live-edge and tombstone
// totals follow from the directories, never from the operations.
func (t *txn) commit() {
	g := t.g
	g.verts = t.verts
	for _, s := range t.staged {
		n, dead := slots(s.segs)
		g.numEdges += n - dead - s.live
		g.numDeleted += dead - s.dead
		g.verts[s.u] = s.segs
	}
	g.frontier, g.minTime, g.hasEdges = t.frontier, t.minTime, t.hasEdges
	g.maxSeg, g.aux = t.maxSeg, t.aux
}

// vertex returns u's directory as the txn sees it.
func (t *txn) vertex(u temporal.Vertex) []segment {
	if int(u) < len(t.at) && t.at[u] != 0 {
		return t.staged[t.at[u]-1].segs
	}
	if int(u) < len(t.verts) {
		return t.verts[u]
	}
	return nil
}

// stage returns u's staged entry, staging its current directory first. The
// pointer is valid until the next vertex is staged.
func (t *txn) stage(u temporal.Vertex) *stagedVertex {
	if int(u) >= len(t.at) {
		t.at = append(t.at, make([]int32, max(int(u)+1, len(t.verts))-len(t.at))...)
	}
	if t.at[u] == 0 {
		segs := t.vertex(u)
		n, dead := slots(segs)
		t.staged = append(t.staged, stagedVertex{u: u, segs: segs, live: n - dead, dead: dead})
		t.at[u] = int32(len(t.staged))
	}
	return &t.staged[t.at[u]-1]
}

// install makes segs u's directory within the txn.
func (t *txn) install(u temporal.Vertex, segs []segment) { t.stage(u).segs = segs }

// grow gives the txn a vertex table of n directories, copying the published
// one: readers keep the table they hold.
func (t *txn) grow(n int) {
	verts := make([][]segment, n)
	copy(verts, t.verts)
	t.verts = verts
}

// build is the one way a segment is made from existing slots: it
// allocates, fills and finishes a segment holding the newest-first run,
// then the live slots of segs, a newest-first directory prefix, timed at or
// after from. olderCount slots of the vertex precede the segment. ok is
// false when nothing is live to build from.
func (t *txn) build(run []temporal.Edge, segs []segment, from temporal.Time, olderCount int) (seg segment, ok bool) {
	n := len(run)
	for i := range segs {
		n += segs[i].liveWithin(segs[i].since(from))
	}
	if n == 0 {
		return segment{}, false
	}
	if t.g.spec.Kind != sampling.WeightLinearRank {
		olderCount = 0
	}
	seg = newSegment(n, olderCount)
	for i, e := range run {
		seg.put(i, e.Dst, e.Time)
	}
	i := len(run)
	for si := range segs {
		i = seg.putLive(i, &segs[si], segs[si].since(from))
	}
	t.g.finish(&seg, t.minTime)
	t.maxSeg = max(t.maxSeg, n)
	t.largest = max(t.largest, n)
	t.aux = auxFor(t.aux, n)
	return seg, true
}

// appendBatch stages AppendBatch: a refused batch stages nothing.
func (t *txn) appendBatch(edges []temporal.Edge) error {
	if len(edges) == 0 {
		return nil
	}
	batchMin := edges[0].Time
	maxV := temporal.Vertex(0)
	for _, e := range edges {
		if e.Time <= t.frontier {
			return fmt.Errorf("%w: edge %v vs frontier %d", ErrStaleBatch, e, t.frontier)
		}
		batchMin = min(batchMin, e.Time)
		maxV = max(maxV, e.Src, e.Dst)
	}
	if maxV > maxVertexID {
		return checkVertexIDs(edges)
	}
	if int(maxV) >= len(t.verts) {
		t.grow(int(maxV) + 1)
	}
	if !t.hasEdges {
		t.minTime = batchMin
		t.hasEdges = true
	}
	// Group the batch by source, newest-first within each source.
	g := t.g
	sorted := append(g.sorted[:0], edges...)
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
		t.appendRun(sorted[lo].Src, sorted[lo:hi])
		lo = hi
	}
	g.sorted = reuse(sorted, len(sorted))
	for _, e := range edges {
		t.frontier = max(t.frontier, e.Time)
	}
	return nil
}

// appendRun adds one vertex's newest-first run as a new segment under the
// LSM policy: a newer segment at least as large as its elder absorbs it.
// The absorbed segments and the run are built once, as the final merged
// segment; the intermediate merges only decide which segments it absorbs
// (Figure 7's hierarchy growth, never resurrecting a deletion).
func (t *txn) appendRun(src temporal.Vertex, es []temporal.Edge) {
	old := t.vertex(src)
	n, absorbed := len(es), 0
	for absorbed < len(old) && n >= old[absorbed].len() {
		n += old[absorbed].len() - old[absorbed].deadCount()
		absorbed++
	}
	older, _ := slots(old[absorbed:])
	seg, _ := t.build(es, old[:absorbed], temporal.MinTime, older)
	segs := make([]segment, 1+len(old)-absorbed)
	segs[0] = seg
	copy(segs[1:], old[absorbed:])
	t.g.rescale(segs)
	t.install(src, segs)
}
