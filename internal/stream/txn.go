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
// freely — only the txn's owner ever writes it — and keeps every vertex
// state it changes to itself, so building segments needs no lock; commit
// installs the staged states, the only step readers must be kept out of.
// A DurableGraph stages a whole group commit in one txn and holds its write
// lock only for commit.
type txn struct {
	g *Graph
	// verts is the published vertex table, or a larger copy once the txn
	// must grow it; the staged states apply over it at commit.
	verts  []vertexState
	staged []stagedVertex
	// at[u] is 1 + u's index in staged, 0 while u is unstaged. It lasts
	// across txns: begin zeroes the entries the last one used.
	at []int32
	// Deletions copy a published directory or tombstone bitmap the first
	// time they edit it; these are the copies, which no reader sees before
	// commit, so later deletions in the txn edit them in place.
	copiedDirs map[*segment]struct{}
	copiedBits map[*tombstones]struct{}

	frontier   temporal.Time
	minTime    temporal.Time
	hasEdges   bool
	numEdges   int
	numDeleted int
	maxSeg     int
	aux        *hpat.AuxIndex
}

type stagedVertex struct {
	u  temporal.Vertex
	vs vertexState
}

// begin starts a txn over the graph's current state.
func (g *Graph) begin() *txn {
	t := &g.tx
	for _, s := range t.staged {
		t.at[s.u] = 0
	}
	clear(t.staged)
	clear(t.copiedDirs)
	clear(t.copiedBits)
	*t = txn{
		g:          g,
		verts:      g.verts,
		staged:     t.staged[:0],
		at:         t.at,
		copiedDirs: t.copiedDirs,
		copiedBits: t.copiedBits,
		frontier:   g.frontier,
		minTime:    g.minTime,
		hasEdges:   g.hasEdges,
		numEdges:   g.numEdges,
		numDeleted: g.numDeleted,
		maxSeg:     g.maxSeg,
		aux:        g.aux,
	}
	return t
}

// commit installs everything the txn staged.
func (t *txn) commit() {
	g := t.g
	g.verts = t.verts
	for _, s := range t.staged {
		g.verts[s.u] = s.vs
	}
	g.frontier, g.minTime, g.hasEdges = t.frontier, t.minTime, t.hasEdges
	g.numEdges, g.numDeleted, g.maxSeg, g.aux = t.numEdges, t.numDeleted, t.maxSeg, t.aux
}

// vertex returns u's state as the txn sees it.
func (t *txn) vertex(u temporal.Vertex) vertexState {
	if int(u) < len(t.at) && t.at[u] != 0 {
		return t.staged[t.at[u]-1].vs
	}
	if int(u) < len(t.verts) {
		return t.verts[u]
	}
	return vertexState{}
}

// stage returns u's staged entry, staging its current state first. The
// pointer is valid until the next vertex is staged.
func (t *txn) stage(u temporal.Vertex) *stagedVertex {
	if int(u) >= len(t.at) {
		t.at = append(t.at, make([]int32, max(int(u)+1, len(t.verts))-len(t.at))...)
	}
	if t.at[u] == 0 {
		t.staged = append(t.staged, stagedVertex{u, t.vertex(u)})
		t.at[u] = int32(len(t.staged))
	}
	return &t.staged[t.at[u]-1]
}

// set changes u's state within the txn.
func (t *txn) set(u temporal.Vertex, vs vertexState) { t.stage(u).vs = vs }

// grow gives the txn a vertex table of n states, copying the published one:
// readers keep the table they hold.
func (t *txn) grow(n int) {
	verts := make([]vertexState, n)
	copy(verts, t.verts)
	t.verts = verts
}

// newSegment allocates an n-slot segment whose olderCount slots of the
// vertex precede it.
func (t *txn) newSegment(n, olderCount int) segment {
	if t.g.spec.Kind != sampling.WeightLinearRank {
		olderCount = 0
	}
	return newSegment(n, olderCount)
}

// built records a new n-slot segment: the auxiliary index must cover it.
func (t *txn) built(n int) {
	t.maxSeg = max(t.maxSeg, n)
	t.aux = auxFor(t.aux, n)
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
	g.sorted = sorted[:0]
	for _, e := range edges {
		t.frontier = max(t.frontier, e.Time)
	}
	t.numEdges += len(edges)
	return nil
}

// appendRun adds one vertex's newest-first run as a new segment under the
// LSM policy: a newer segment at least as large as its elder absorbs it.
// The absorbed segments and the run are built once, as the final merged
// segment; the intermediate merges only decide which segments it absorbs
// and how many tombstones drop (Figure 7's hierarchy growth, never
// resurrecting a deletion).
func (t *txn) appendRun(src temporal.Vertex, es []temporal.Edge) {
	sv := t.stage(src)
	vs := sv.vs
	degree := vs.degree + len(es)
	n, olderCount, dropped, absorbed := len(es), vs.degree, 0, 0
	for absorbed < len(vs.segs) && n >= vs.segs[absorbed].len() {
		s := &vs.segs[absorbed]
		olderCount = degree - n - s.len()
		dead := s.deadCount()
		n += s.len() - dead
		degree -= dead
		dropped += dead
		absorbed++
	}
	seg := t.newSegment(n, olderCount)
	i := 0
	for _, e := range es {
		seg.put(i, e.Dst, e.Time)
		i++
	}
	for si := range vs.segs[:absorbed] {
		i = seg.putLive(i, &vs.segs[si], vs.segs[si].len())
	}
	t.g.finish(&seg, t.minTime)
	segs := make([]segment, 1+len(vs.segs)-absorbed)
	segs[0] = seg
	copy(segs[1:], vs.segs[absorbed:])
	t.g.rescale(segs)
	sv.vs = vertexState{segs: segs, degree: degree, deleted: vs.deleted - dropped}
	t.numDeleted -= dropped
	t.built(n)
}

// rebuildVertex stages RebuildVertex: every slot of u, tombstoned or not,
// in one segment.
func (t *txn) rebuildVertex(u temporal.Vertex) {
	if int(u) >= len(t.verts) {
		return
	}
	vs := t.vertex(u)
	if len(vs.segs) == 0 {
		return
	}
	n := 0
	for si := range vs.segs {
		n += vs.segs[si].len()
	}
	seg := t.newSegment(n, 0)
	i := 0
	for si := range vs.segs {
		s := &vs.segs[si]
		for j := 0; j < s.len(); j++ {
			seg.put(i, s.dst(j), s.ts(j))
			i++
		}
	}
	t.g.finish(&seg, t.minTime) // a lone segment's scale is 1
	vs.segs = []segment{seg}
	t.set(u, vs)
	t.built(n)
}
