// Package stream implements TEA's streaming graph support (§3.5): batched
// addition of strictly newer edges and vertices with incremental HPAT
// maintenance.
//
// Each appended batch becomes a new per-vertex HPAT segment. Because arriving
// edges always carry later timestamps, a temporal candidate set spans a run
// of newest segments (fully) plus at most one partially-covered older
// segment — so sampling composes an ITS across segment totals with the
// per-segment HPAT draw. Segments are merged LSM-style (a segment absorbs its
// elder when it reaches the elder's size), realizing Figure 7's "grow the
// hierarchy" with amortized O(log) rebuild work instead of the naive
// rebuild-from-scratch the paper's Figure 13d compares against.
//
// A vertex is one compact segment directory, newest first. An entry holds
// what a walker needs to take a fully-covered segment whole — its oldest
// time and scaled mass — and one pointer-free arena with the segment's
// times, destinations and HPAT block, so a step reads the directory and then
// one arena. Arenas and directories are immutable once published; every
// mutation is staged aside (txn.go) and installed in one short step.
package stream

import (
	"errors"
	"fmt"
	"unsafe"

	"github.com/tea-graph/tea/internal/hpat"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// ErrStaleBatch is returned when a batch contains an edge not newer than the
// stream's current frontier; §3.5 supports additions only.
var ErrStaleBatch = errors.New("stream: batch edge is not newer than the current frontier")

// ErrVertexRange is returned when a batch names a vertex id above
// maxVertexID, or a config asks for more vertices.
var ErrVertexRange = errors.New("stream: vertex id out of range")

// ErrCustomWeight mirrors the baseline restriction: streaming needs to
// re-derive weights on merges, which the built-in kinds support.
var ErrCustomWeight = errors.New("stream: custom weight functions are not supported in streaming mode")

// maxVertexID is the largest vertex id a batch may name. The vertex table is
// dense — one directory header per id up to the largest seen — so one id
// near 2^32 would ask for gigabytes, and a durable graph would ask again on
// every replay of the logged batch. 2^26−1 bounds the table at about 1.6 GB.
const maxVertexID = 1<<26 - 1

// maxStepSegments bounds the segments one step composes; the LSM policy
// keeps far fewer, so only a pathological history reaches it.
const maxStepSegments = 64

// segment is one directory entry: a contiguous run of a vertex's out-edges,
// newest first. scale converts the segment-relative weight total into the
// vertex-global scale (exponential weights are normalized per segment to
// stay in floating-point range; the per-segment factor exp(λ·Δt) restores
// comparability).
type segment struct {
	// arena is ts[n] | dst[n], two per word | the HPAT block over the
	// segment's weights (hpat.BlockWords(n)). It holds no pointers.
	arena  []uint64
	oldest temporal.Time // ts[n-1]
	mass   float64       // scale·cum[n]: the segment's share when fully covered
	scale  float64
	n      int32
	// rank is, for linear-rank weights, the number of the vertex's edge
	// slots older than the segment when it was built; 0 for other kinds.
	rank int32
	// dead tombstones deleted edges (see delete.go); nil until a deletion
	// touches the segment.
	dead *tombstones
}

// tombstones is a segment's deletion bitmap, replaced (never edited) by
// each deletion.
type tombstones struct {
	bits  []uint64
	count int
}

// arenaWords returns the arena size of an n-edge segment.
func arenaWords(n int) int { return n + (n+1)/2 + hpat.BlockWords(n) }

func (s *segment) len() int { return int(s.n) }

// ts returns slot i's time.
func (s *segment) ts(i int) temporal.Time { return temporal.Time(s.arena[i]) }

// dst returns slot i's destination.
func (s *segment) dst(i int) temporal.Vertex {
	return temporal.Vertex(s.arena[s.len()+i/2] >> (32 * (i & 1)))
}

// put stores slot i of a segment under construction (its arena is zeroed).
func (s *segment) put(i int, dst temporal.Vertex, at temporal.Time) {
	s.arena[i] = uint64(at)
	s.arena[s.len()+i/2] |= uint64(dst) << (32 * (i & 1))
}

// putLive copies the live slots among s's k newest into the segment from
// slot i on, and returns the next free slot.
func (seg *segment) putLive(i int, s *segment, k int) int {
	for j := 0; j < k; j++ {
		if !s.isDeleted(j) {
			seg.put(i, s.dst(j), s.ts(j))
			i++
		}
	}
	return i
}

// since returns how many of the segment's slots are timed at or after
// from: a newest-first prefix.
func (s *segment) since(from temporal.Time) int {
	if s.oldest >= from {
		return s.len()
	}
	return s.newerThan(from - 1)
}

// block returns the segment's HPAT block.
func (s *segment) block() []uint64 { return s.arena[s.len()+(s.len()+1)/2:] }

// newestTime returns the segment's latest timestamp.
func (s *segment) newestTime() temporal.Time { return s.ts(0) }

// oldestTime returns the segment's earliest timestamp.
func (s *segment) oldestTime() temporal.Time { return s.oldest }

// newerThan returns how many of the segment's slots are later than after:
// its newest-first times make that a prefix.
func (s *segment) newerThan(after temporal.Time) int {
	lo, hi := 0, s.len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ts(mid) <= after {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// slots returns a directory's slot count and, of those, how many are
// tombstoned. They are the only per-vertex counts: every degree derives
// from them.
func slots(segs []segment) (n, dead int) {
	for i := range segs {
		n += segs[i].len()
		dead += segs[i].deadCount()
	}
	return n, dead
}

// Graph is a streaming temporal graph: an initial (possibly empty) edge set
// plus batches of strictly newer edges. It supports temporal-walk sampling
// directly, with per-vertex incremental HPAT segments.
type Graph struct {
	spec       sampling.WeightSpec
	verts      [][]segment // each vertex's segment directory, newest first
	numEdges   int
	frontier   temporal.Time // latest time seen; batches must exceed it
	hasEdges   bool
	minTime    temporal.Time // reference for linear-time weights
	aux        *hpat.AuxIndex
	maxSeg     int // largest segment ever built; snapshots record it
	numDeleted int // live tombstones across all vertices

	// The writer's working space: one goroutine mutates at a time.
	tx      txn
	sorted  []temporal.Edge
	weights []float64
	scratch hpat.BlockScratch
	onBuild func() // called before each segment build; tests watch locks with it
}

// Config parameterizes a streaming graph.
type Config struct {
	// Weight selects the temporal weight; custom functions are rejected.
	Weight sampling.WeightSpec
	// NumVertices pre-sizes the vertex space, up to maxVertexID+1; batches
	// may still grow it.
	NumVertices int
	// MinTime anchors linear-time weights; defaults to the first batch's
	// earliest timestamp.
	MinTime *temporal.Time
}

// New creates an empty streaming graph.
func New(cfg Config) (*Graph, error) {
	if cfg.Weight.Custom != nil {
		return nil, ErrCustomWeight
	}
	if cfg.NumVertices > maxVertexID+1 {
		return nil, fmt.Errorf("%w: %d vertices, at most %d", ErrVertexRange, cfg.NumVertices, maxVertexID+1)
	}
	g := &Graph{
		spec:     cfg.Weight,
		verts:    make([][]segment, cfg.NumVertices),
		frontier: temporal.MinTime,
	}
	if cfg.MinTime != nil {
		g.minTime = *cfg.MinTime
		g.hasEdges = true // minTime is pinned; batches won't move it
	}
	return g, nil
}

// NumVertices returns the current vertex-space size.
func (g *Graph) NumVertices() int { return len(g.verts) }

// NumEdges returns the number of live edges: appended, minus deleted, minus
// expired.
func (g *Graph) NumEdges() int { return g.numEdges }

// Frontier returns the latest timestamp in the stream.
func (g *Graph) Frontier() temporal.Time { return g.frontier }

// Degree returns the current out-degree of u (0 for unseen vertices).
func (g *Graph) Degree(u temporal.Vertex) int {
	if int(u) >= len(g.verts) {
		return 0
	}
	n, _ := slots(g.verts[u])
	return n
}

// Segments returns the current segment count of u; exposed for tests and the
// Figure 13d experiment.
func (g *Graph) Segments(u temporal.Vertex) int {
	if int(u) >= len(g.verts) {
		return 0
	}
	return len(g.verts[u])
}

// AppendBatch ingests a batch of edges, all strictly newer than every edge
// already in the stream (the edge-stream model of §2.1/§3.5). The batch may
// reference vertices beyond the current space, up to maxVertexID; the space
// grows. Within the batch, edges may arrive in any order.
func (g *Graph) AppendBatch(edges []temporal.Edge) error {
	t := g.begin()
	if err := t.appendBatch(edges); err != nil {
		return err
	}
	t.commit()
	return nil
}

// weight returns slot i's weight under spec: the shared temporal weight of
// its time against the segment's newest, its rank counted from the oldest
// edge of the vertex so it stays put as newer edges arrive. The build, the
// tombstone fallback and the snapshot writer all call it, so they agree bit
// for bit.
func (s *segment) weight(spec sampling.WeightSpec, i int, minTime temporal.Time) float64 {
	return spec.EdgeWeight(s.ts(i), s.ts(0), minTime, int(s.rank)+s.len()-i)
}

// newSegment allocates an n-slot segment — its one heap allocation — for
// the caller to fill with put and then finish.
func newSegment(n, rank int) segment {
	return segment{arena: make([]uint64, arenaWords(n)), n: int32(n), rank: int32(rank), scale: 1}
}

// finish builds a filled segment's HPAT block from its slots' weights.
func (g *Graph) finish(s *segment, minTime temporal.Time) {
	if g.onBuild != nil {
		g.onBuild()
	}
	n := s.len()
	if cap(g.weights) < n {
		g.weights = make([]float64, n)
	}
	w := g.weights[:n]
	for i := range w {
		w[i] = s.weight(g.spec, i, minTime)
	}
	hpat.BuildBlock(w, s.block(), &g.scratch)
	s.oldest = s.ts(n - 1)
	s.mass = s.scale * hpat.BlockTotal(s.block(), n)
}

// rescale refreshes the cross-segment scale factors of a newest-first
// directory after its newest time moved. Only exponential weights need
// scaling; the factor is the weight of the segment's newest edge against
// the vertex's newest, exp(λ·(segNewest − vertexNewest)), so that
// scale·Total reproduces Eq. 3's ratios across segments.
func (g *Graph) rescale(segs []segment) {
	if g.spec.Kind != sampling.WeightExponential || len(segs) == 0 {
		return
	}
	vertexNewest := segs[0].newestTime()
	for i := range segs {
		s := &segs[i]
		s.scale = g.spec.EdgeWeight(s.newestTime(), vertexNewest, 0, 0)
		s.mass = s.scale * hpat.BlockTotal(s.block(), s.len())
	}
}

// auxFor returns an auxiliary index covering segments of maxSeg edges:
// aux itself when it does, else one grown geometrically so amortized cost
// stays negligible.
func auxFor(aux *hpat.AuxIndex, maxSeg int) *hpat.AuxIndex {
	if aux != nil && aux.MaxSize() >= maxSeg {
		return aux
	}
	size := 1
	for size < maxSeg {
		size *= 2
	}
	return hpat.BuildAuxIndex(size, 1)
}

// CandidateCount returns |Γ_after(u)|, spanning segments.
func (g *Graph) CandidateCount(u temporal.Vertex, after temporal.Time) int {
	if int(u) >= len(g.verts) {
		return 0
	}
	count := 0
	for i := range g.verts[u] {
		s := &g.verts[u][i]
		if s.oldest > after {
			count += s.len()
			continue
		}
		return count + s.newerThan(after)
	}
	return count
}

// SampleStep draws the next edge for a walker at u with arrival time after.
// evaluated counts slots examined. ok is false at temporal dead ends.
//
// The fully-covered newest segments are taken whole from the directory
// (oldest time and mass); only the one partial segment's arena is searched.
func (g *Graph) SampleStep(u temporal.Vertex, after temporal.Time, r *xrand.Rand) (dst temporal.Vertex, at temporal.Time, evaluated int64, ok bool) {
	if int(u) >= len(g.verts) {
		return 0, 0, 0, false
	}
	segs := g.verts[u]
	if len(segs) > maxStepSegments {
		segs = segs[:maxStepSegments]
	}
	// segs[:n] hold candidates: all of each but the last, whose lastK
	// newest slots are.
	n, lastK, grand := 0, 0, 0.0
	for n < len(segs) {
		s := &segs[n]
		if s.oldest > after {
			n, lastK = n+1, s.len()
			grand += s.mass
			evaluated++
			continue
		}
		if k := s.newerThan(after); k > 0 {
			n, lastK = n+1, k
			// float64 rounds the product, so no GOARCH fuses it into the
			// sum and seeded draws replay alike everywhere (ci/fma_check.sh).
			grand += float64(s.scale * hpat.BlockTotal(s.block(), k))
			evaluated++
		}
		break
	}
	if !(grand > 0) {
		return 0, 0, evaluated, false
	}
	segs = segs[:n]
	// Tombstone rejection (delete.go): segment totals still include deleted
	// edges, so a draw that lands on one is re-proposed from scratch — live
	// edges keep their exact relative probabilities. Vertices without
	// tombstones accept on the first draw.
	for trial := 0; trial < deleteRetryCap; trial++ {
		x := r.Range(grand)
		i, acc := n-1, 0.0
		for j := range segs[:n-1] {
			acc += segs[j].mass
			if x < acc {
				i = j
				break
			}
		}
		s, k := &segs[i], candidates(segs, i, lastK)
		idx, ev, sok := hpat.SampleBlock(s.block(), s.len(), k, g.aux, r)
		evaluated += ev
		if !sok {
			return 0, 0, evaluated, false
		}
		if s.isDeleted(idx) {
			continue
		}
		return s.dst(idx), s.ts(idx), evaluated, true
	}
	// Nearly everything in range is tombstoned: exact scan over the live
	// candidates of every overlapping segment, products rounded as above.
	liveTotal := 0.0
	for i := range segs {
		s, k := &segs[i], candidates(segs, i, lastK)
		for j := 0; j < k; j++ {
			if !s.isDeleted(j) {
				liveTotal += float64(s.scale * s.weight(g.spec, j, g.minTime))
			}
			evaluated++
		}
	}
	if !(liveTotal > 0) {
		return 0, 0, evaluated, false
	}
	x := r.Range(liveTotal)
	acc := 0.0
	for i := range segs {
		s, k := &segs[i], candidates(segs, i, lastK)
		for j := 0; j < k; j++ {
			if s.isDeleted(j) {
				continue
			}
			acc += float64(s.scale * s.weight(g.spec, j, g.minTime))
			if x < acc {
				return s.dst(j), s.ts(j), evaluated, true
			}
		}
	}
	// Floating-point edge: return the last live candidate.
	for i := n - 1; i >= 0; i-- {
		s := &segs[i]
		for j := candidates(segs, i, lastK) - 1; j >= 0; j-- {
			if !s.isDeleted(j) {
				return s.dst(j), s.ts(j), evaluated, true
			}
		}
	}
	return 0, 0, evaluated, false
}

// candidates returns how many slots of segs[i] are candidates when all of
// segs hold some and the last holds lastK.
func candidates(segs []segment, i, lastK int) int {
	if i == len(segs)-1 {
		return lastK
	}
	return segs[i].len()
}

// Walk runs one temporal walk of at most length steps from src starting with
// arrival time start (use temporal.MinTime for "all out-edges eligible").
func (g *Graph) Walk(src temporal.Vertex, start temporal.Time, length int, r *xrand.Rand) ([]temporal.Vertex, []temporal.Time) {
	verts := []temporal.Vertex{src}
	var times []temporal.Time
	u, t := src, start
	for step := 0; step < length; step++ {
		dst, at, _, ok := g.SampleStep(u, t, r)
		if !ok {
			break
		}
		verts = append(verts, dst)
		times = append(times, at)
		u, t = dst, at
	}
	return verts, times
}

// WalkSeeded is Walk with a self-contained deterministic random stream,
// usable without constructing an engine RNG (the public-API entry point).
func (g *Graph) WalkSeeded(src temporal.Vertex, start temporal.Time, length int, seed uint64) ([]temporal.Vertex, []temporal.Time) {
	return g.Walk(src, start, length, xrand.New(seed))
}

// Snapshot materializes the current stream as an immutable temporal.Graph.
func (g *Graph) Snapshot() (*temporal.Graph, error) {
	edges := make([]temporal.Edge, 0, g.numEdges)
	for u, segs := range g.verts {
		for si := len(segs) - 1; si >= 0; si-- {
			s := &segs[si]
			for i := 0; i < s.len(); i++ {
				if s.isDeleted(i) {
					continue
				}
				edges = append(edges, temporal.Edge{Src: temporal.Vertex(u), Dst: s.dst(i), Time: s.ts(i)})
			}
		}
	}
	return temporal.FromEdges(edges, temporal.WithNumVertices(len(g.verts)))
}

// MemoryBytes reports the footprint of every segment directory, arena and
// tombstone bitmap plus the shared auxiliary index. It leaves out the dense
// vertex table (one 24-byte directory header per vertex id, seen or not)
// and the writer's scratch: the sorted copy of the last batch, the staged
// directories, and the weight buffer and HPAT block scratch of the last
// txn's largest segment.
func (g *Graph) MemoryBytes() int64 {
	total := int64(0)
	for _, segs := range g.verts {
		total += int64(len(segs)) * int64(unsafe.Sizeof(segment{}))
		for si := range segs {
			s := &segs[si]
			total += int64(len(s.arena)) * 8
			if s.dead != nil {
				total += int64(unsafe.Sizeof(tombstones{})) + int64(len(s.dead.bits))*8
			}
		}
	}
	if g.aux != nil {
		total += g.aux.MemoryBytes()
	}
	return total
}

// RebuildVertex rebuilds u's live edges into a single segment, the naive
// "rebuild HPAT from scratch" strategy Figure 13d compares the incremental
// update against: CompactVertex without waiting for a tombstone. Exposed so
// experiments can time it.
func (g *Graph) RebuildVertex(u temporal.Vertex) {
	t := g.begin()
	t.compactVertex(u)
	t.commit()
}

// checkVertexIDs refuses a batch naming a vertex above maxVertexID.
func checkVertexIDs(edges []temporal.Edge) error {
	for _, e := range edges {
		if e.Src > maxVertexID || e.Dst > maxVertexID {
			return fmt.Errorf("%w: edge %v names a vertex above %d", ErrVertexRange, e, maxVertexID)
		}
	}
	return nil
}
