package temporal

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/tea-graph/tea/internal/par"
)

// BuildOption configures FromEdges.
type BuildOption func(*buildConfig)

type buildConfig struct {
	numVertices int // 0 = infer max id + 1
	threads     int // < 1 = GOMAXPROCS; tests pin it through withThreads
}

// WithNumVertices forces the vertex id space to [0, n) even if the stream
// references fewer vertices. FromEdges fails if an edge exceeds the range.
func WithNumVertices(n int) BuildOption {
	return func(c *buildConfig) { c.numVertices = n }
}

// withThreads sets the per-vertex ordering pass's thread count.
func withThreads(n int) BuildOption {
	return func(c *buildConfig) { c.threads = n }
}

// FromEdges builds an immutable Graph from a temporal edge stream.
//
// Construction follows §4.2 of the paper in O(|E|) for stream-ordered
// input: a counting sort by source fixes every vertex's edge range, then
// each vertex's out-edges are put newest first (ties broken by ascending
// destination) in parallel, on chunks of equal edge count. A run that is
// already in that order is kept, one in exactly the reverse order (a
// stream in time order) is reversed, and any other is sorted. The stream
// may arrive in any order.
func FromEdges(edges []Edge, opts ...BuildOption) (*Graph, error) {
	var cfg buildConfig
	for _, o := range opts {
		o(&cfg)
	}
	numV := cfg.numVertices
	if numV == 0 {
		if len(edges) == 0 {
			return nil, ErrNoEdges
		}
		maxID := Vertex(0)
		for _, e := range edges {
			maxID = max(maxID, e.Src, e.Dst)
		}
		numV = int(maxID) + 1
	}

	// Counting pass: out-degrees, the vertex range and the time range.
	offsets := make([]int64, numV+1)
	g := &Graph{offsets: offsets}
	if len(edges) > 0 {
		g.minTime, g.maxTime = edges[0].Time, edges[0].Time
	}
	for _, e := range edges {
		if int(e.Src) >= numV || int(e.Dst) >= numV {
			return nil, fmt.Errorf("%w: edge %v with %d vertices", ErrVertexRange, e, numV)
		}
		offsets[e.Src+1]++
		g.minTime, g.maxTime = min(g.minTime, e.Time), max(g.maxTime, e.Time)
	}
	next := make([]int64, numV)
	for u := range numV {
		g.maxDegree = max(g.maxDegree, int(offsets[u+1]))
		offsets[u+1] += offsets[u]
		next[u] = offsets[u]
	}
	bySrc := make([]Edge, len(edges))
	for _, e := range edges {
		bySrc[next[e.Src]] = e
		next[e.Src]++
	}

	g.dst = make([]Vertex, len(edges))
	g.ts = make([]Time, len(edges))
	par.ForEdges(offsets, cfg.threads, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			run := bySrc[offsets[u]:offsets[u+1]]
			newestFirst(run)
			for i, e := range run {
				g.dst[offsets[u]+int64(i)] = e.Dst
				g.ts[offsets[u]+int64(i)] = e.Time
			}
		}
	})
	return g, nil
}

// newestFirst sorts one vertex's out-edges by (time desc, dst asc). Edges
// of one source that compare equal are identical, so the order is total
// and any sort gives the same bytes.
func newestFirst(run []Edge) {
	switch {
	case slices.IsSortedFunc(run, compareNewestFirst):
	case slices.IsSortedFunc(run, func(a, b Edge) int { return compareNewestFirst(b, a) }):
		slices.Reverse(run)
	default:
		slices.SortFunc(run, compareNewestFirst)
	}
}

func compareNewestFirst(a, b Edge) int {
	if c := cmp.Compare(b.Time, a.Time); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst, b.Dst)
}

// MustFromEdges is FromEdges that panics on error; intended for tests,
// examples, and embedded toy graphs.
func MustFromEdges(edges []Edge, opts ...BuildOption) *Graph {
	g, err := FromEdges(edges, opts...)
	if err != nil {
		panic(err)
	}
	return g
}

// PrecomputeCandidates computes, for every edge (u, v, t), the candidate set
// size |Γ_t(v)| at the destination, so walks can look it up in O(1). This is
// the parallel "searching candidate edge sets" phase of §4.2: a binary search
// per edge, embarrassingly parallel over edges.
//
// threads < 1 selects GOMAXPROCS. Calling it again recomputes the table (it
// is idempotent for an immutable graph).
func (g *Graph) PrecomputeCandidates(threads int) {
	cand := make([]int32, len(g.dst))
	par.For(len(cand), threads, func(_, lo, hi int) {
		for e := lo; e < hi; e++ {
			cand[e] = int32(g.CandidateCount(g.dst[e], g.ts[e]))
		}
	})
	g.candAtDst = cand
}
