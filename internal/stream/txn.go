package stream

import (
	"slices"
	"sort"

	"github.com/tea-graph/tea/internal/hpat"
	"github.com/tea-graph/tea/internal/par"
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
	// cuts holds the newest time of each admitted batch not yet appended,
	// in log order, and maxV the largest vertex id they name.
	cuts []temporal.Time
	maxV temporal.Vertex

	sizes    sizeClasses
	frontier temporal.Time
	minTime  temporal.Time
	hasEdges bool
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
	g.weights = reuse(g.weights, g.largest)
	if g.scratch.Len() > max(scratchSlack*g.largest, scratchFloor) {
		g.scratch = hpat.BlockScratch{}
	}
	g.largest = 0
	*t = txn{
		g:          g,
		verts:      g.verts,
		staged:     reuse(t.staged, len(t.staged)),
		at:         t.at,
		copiedDirs: reuseMap(t.copiedDirs),
		copiedBits: reuseMap(t.copiedBits),
		cuts:       t.cuts[:0],
		sizes:      g.sizes,
		frontier:   g.frontier,
		minTime:    g.minTime,
		hasEdges:   g.hasEdges,
		aux:        g.aux,
	}
	return t
}

// commit installs everything the txn staged. The live-edge and tombstone
// totals follow from the directories, never from the operations.
func (t *txn) commit() {
	t.settle()
	g := t.g
	g.verts = t.verts
	for _, s := range t.staged {
		n, dead := slots(s.segs)
		g.numEdges += n - dead - s.live
		g.numDeleted += dead - s.dead
		g.verts[s.u] = s.segs
	}
	g.frontier, g.minTime, g.hasEdges = t.frontier, t.minTime, t.hasEdges
	g.sizes, g.aux = t.sizes, t.aux
	g.maxSeg = max(g.maxSeg, g.largest)
}

// settle sizes the txn's auxiliary index to the segments it leaves. A
// durable commit settles before it takes the write lock, so an index that
// must be rebuilt is built off it.
func (t *txn) settle() { t.aux = auxFor(t.aux, t.sizes.cover()) }

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
func (t *txn) stage(u temporal.Vertex) *stagedVertex { return &t.staged[t.stageIndex(u)] }

// stageIndex returns u's index in staged, staging its current directory
// first.
func (t *txn) stageIndex(u temporal.Vertex) int {
	if int(u) >= len(t.at) {
		t.at = append(t.at, make([]int32, max(int(u)+1, len(t.verts))-len(t.at))...)
	}
	if t.at[u] == 0 {
		segs := t.vertex(u)
		n, dead := slots(segs)
		t.staged = append(t.staged, stagedVertex{u: u, segs: segs, live: n - dead, dead: dead})
		t.at[u] = int32(len(t.staged))
	}
	return int(t.at[u]) - 1
}

// install makes segs u's directory within the txn.
func (t *txn) install(u temporal.Vertex, segs []segment) {
	s := t.stage(u)
	t.sizes.add(s.segs, -1)
	t.sizes.add(segs, 1)
	s.segs = segs
}

// grow gives the txn a vertex table of n directories, copying the published
// one: readers keep the table they hold.
func (t *txn) grow(n int) {
	verts := make([][]segment, n)
	copy(verts, t.verts)
	t.verts = verts
}

// build is the one way a segment is made from existing slots: b
// allocates, fills and finishes a segment holding the newest-first run,
// then the live slots of segs, a newest-first directory prefix, timed at or
// after from. olderCount slots of the vertex precede the segment. ok is
// false when nothing is live to build from.
func (t *txn) build(b *builder, run []temporal.Edge, segs []segment, from temporal.Time, olderCount int) (seg segment, ok bool) {
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
	if t.g.onBuild != nil {
		t.g.onBuild()
	}
	b.finish(t.g.spec, &seg, t.minTime)
	return seg, true
}

// appendBatch stages AppendBatch, the one-batch, one-thread case of the
// planned append: a refused batch stages nothing.
func (t *txn) appendBatch(edges []temporal.Edge) error {
	if len(edges) == 0 {
		return nil
	}
	t.g.sorted = append(t.g.sorted[:0], edges...)
	err := t.admit(0)
	t.appendAdmitted(1)
	return err
}

// admit checks the batch t.g.sorted[from:] as AppendBatch does (checkBatch)
// against the frontier the batches before it leave, and queues it for
// appendAdmitted. A refused batch is dropped and changes nothing.
func (t *txn) admit(from int) error {
	g := t.g
	oldest, newest, maxV, err := checkBatch(g.sorted[from:], t.frontier)
	if err != nil {
		g.sorted = g.sorted[:from]
		return err
	}
	if !t.hasEdges {
		t.minTime = oldest
		t.hasEdges = true
	}
	t.frontier = newest
	t.cuts = append(t.cuts, newest)
	t.maxV = max(t.maxV, maxV)
	return nil
}

// appendAdmitted stages the admitted batches held in t.g.sorted on threads
// threads. Their edges are grouped by source, newest first, with
// temporal's counting sort, keyed by staged index so that grouping costs
// the sources touched, not the vertex table; then each source's directory
// is planned and its final segments built once (appendRuns), the sources
// split among threads by edge count.
func (t *txn) appendAdmitted(threads int) {
	g := t.g
	edges := g.sorted
	if len(edges) == 0 {
		return
	}
	if int(t.maxV) >= len(t.verts) {
		t.grow(int(t.maxV) + 1)
	}
	for i := range edges {
		edges[i].Src = temporal.Vertex(t.stageIndex(edges[i].Src))
	}
	g.offsets = slices.Grow(g.offsets[:0], len(t.staged)+1)[:len(t.staged)+1]
	clear(g.offsets)
	for _, e := range edges {
		g.offsets[e.Src+1]++
	}
	g.grouped = slices.Grow(g.grouped[:0], len(edges))[:len(edges)]
	offsets, grouped := g.offsets, g.grouped
	temporal.GroupBySource(edges, offsets, grouped)
	// Sources staged by an earlier operation of the txn have no edges.
	touched := func(d int) bool { return offsets[d+1] > offsets[d] }
	for d := range t.staged {
		if touched(d) {
			t.sizes.add(t.staged[d].segs, -1)
		}
	}
	// Chunk 0 builds with the writer's own scratch, the others with their
	// own.
	builders := make([]builder, par.Threads(threads))
	builders[0] = g.builder
	par.ForEdges(offsets, threads, func(c, lo, hi int) {
		for d := lo; d < hi; d++ {
			if touched(d) {
				run := grouped[offsets[d]:offsets[d+1]]
				temporal.NewestFirst(run)
				t.staged[d].segs = t.appendRuns(&builders[c], t.staged[d].segs, run)
			}
		}
	})
	g.builder = builders[0]
	for _, b := range builders[1:] {
		g.largest = max(g.largest, b.largest)
	}
	for d := range t.staged {
		if touched(d) {
			g.rescale(t.staged[d].segs)
			t.sizes.add(t.staged[d].segs, 1)
		}
	}
	g.sorted = reuse(edges, len(edges))
	g.grouped = reuse(g.grouped, len(edges))
	g.offsets = reuse(g.offsets, len(t.staged)+1)
	t.cuts, t.maxV = t.cuts[:0], 0
}

// planned is one segment of a vertex's planned directory: n slots, the
// newest of them run[lo].
type planned struct{ n, lo int }

// appendRuns returns the directory old becomes when each admitted batch's
// share of run — the vertex's edges in them, newest first — is appended in
// log order as a new segment under the LSM policy: a newer segment at least
// as large as its elder absorbs it (Figure 7's hierarchy growth, never
// resurrecting a deletion). The policy runs on sizes alone, so every final
// segment is built once: its batches' edges, then the live slots of the old
// segments it absorbed, ranked above the slots older than it. What a
// segment absorbs is always a newest-first prefix of the directory, so the
// merges a batch-at-a-time append would nest concatenate to the same slots.
func (t *txn) appendRuns(b *builder, old []segment, run []temporal.Edge) []segment {
	plan, absorbed := b.plan[:0], 0 // plan[0] is the oldest planned segment
	for hi := len(run); hi > 0; {
		// The next batch holds the oldest edge left and the newer ones up
		// to its cut.
		cut := t.cuts[sort.Search(len(t.cuts), func(i int) bool { return t.cuts[i] >= run[hi-1].Time })]
		lo := hi - 1
		for lo > 0 && run[lo-1].Time <= cut {
			lo--
		}
		n := hi - lo
		for len(plan) > 0 && n >= plan[len(plan)-1].n {
			n += plan[len(plan)-1].n
			plan = plan[:len(plan)-1]
		}
		for len(plan) == 0 && absorbed < len(old) && n >= old[absorbed].len() {
			n += old[absorbed].len() - old[absorbed].deadCount()
			absorbed++
		}
		plan = append(plan, planned{n: n, lo: lo})
		hi = lo
	}
	b.plan = plan
	segs := make([]segment, len(plan)+len(old)-absorbed)
	copy(segs[len(plan):], old[absorbed:])
	older, _ := slots(old[absorbed:])
	hi, elders := len(run), old[:absorbed] // the oldest planned segment absorbed them
	for i, p := range plan {
		segs[len(plan)-1-i], _ = t.build(b, run[p.lo:hi], elders, temporal.MinTime, older)
		older += p.n
		hi, elders = p.lo, nil
	}
	return segs
}
