package temporal

import (
	"sort"
)

// Graph is an immutable temporal graph in CSR form. Out-edges of each vertex
// are sorted by decreasing timestamp (ties broken by ascending destination so
// construction is deterministic), which makes every candidate edge set a
// prefix of the adjacency list.
//
// A Graph is safe for concurrent readers. Mutating it after construction is
// not supported; streaming updates live in package stream.
type Graph struct {
	offsets []int64 // len numVertices+1; offsets[u]..offsets[u+1] index dst/ts
	dst     []Vertex
	ts      []Time

	// candAtDst[e] is |Γ_t(dst)| for edge e = (u, dst, t): the number of
	// out-edges of dst strictly later than t. Built by PrecomputeCandidates
	// (the "searching candidate edge sets" preprocessing of §4.2); nil until
	// then, in which case CandidateCount performs a binary search.
	candAtDst []int32

	// nbr is the sorted-unique neighbor index used by temporal node2vec's
	// ISNEIGHBOR test. Built by BuildNeighborIndex; nil until then.
	nbr *neighborIndex

	maxDegree        int
	minTime, maxTime Time
}

type neighborIndex struct {
	offsets []int64
	ids     []Vertex
}

// NumVertices returns the number of vertices (the id space is [0, NumVertices)).
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// Offsets returns the CSR offsets: u's out-edges are [Offsets()[u],
// Offsets()[u+1]). The slice aliases internal storage and must not be
// modified.
func (g *Graph) Offsets() []int64 { return g.offsets }

// NumEdges returns the number of temporal edges.
func (g *Graph) NumEdges() int { return len(g.dst) }

// Degree returns the out-degree of u.
func (g *Graph) Degree(u Vertex) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// MaxDegree returns the maximum out-degree D used in the paper's complexity
// analysis.
func (g *Graph) MaxDegree() int { return g.maxDegree }

// TimeRange returns the smallest and largest edge timestamps. For an empty
// graph it returns (0, 0).
func (g *Graph) TimeRange() (lo, hi Time) { return g.minTime, g.maxTime }

// OutDst returns the destination vertices of u's out-edges, newest first.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) OutDst(u Vertex) []Vertex {
	return g.dst[g.offsets[u]:g.offsets[u+1]]
}

// OutTimes returns the timestamps of u's out-edges, newest first. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) OutTimes(u Vertex) []Time {
	return g.ts[g.offsets[u]:g.offsets[u+1]]
}

// EdgeRange returns the half-open interval [lo, hi) of u's edges within the
// graph's flat CSR edge arrays. Index structures use it to align per-edge
// side arrays (weights, alias slots) with the adjacency storage.
func (g *Graph) EdgeRange(u Vertex) (lo, hi int) {
	return int(g.offsets[u]), int(g.offsets[u+1])
}

// EdgeAt returns the i-th newest out-edge of u.
func (g *Graph) EdgeAt(u Vertex, i int) (dst Vertex, at Time) {
	e := g.offsets[u] + int64(i)
	return g.dst[e], g.ts[e]
}

// CandidateCount returns |Γ_after(u)|: the number of out-edges of u with
// timestamp strictly greater than after. Because adjacency lists are sorted
// newest-first, the candidates are exactly the first CandidateCount edges.
//
// The search is O(log deg(u)); walks that traverse an edge use the O(1)
// precomputed form via CandidateCountAfterEdge when available.
func (g *Graph) CandidateCount(u Vertex, after Time) int {
	times := g.OutTimes(u)
	// First index whose timestamp is <= after; everything before it is newer.
	return sort.Search(len(times), func(i int) bool { return times[i] <= after })
}

// HasCandidatePrecompute reports whether PrecomputeCandidates has run.
func (g *Graph) HasCandidatePrecompute() bool { return g.candAtDst != nil }

// CandidateCountAfterEdge returns |Γ_t(dst)| for the i-th newest out-edge
// (u, dst, t). It is O(1) after PrecomputeCandidates and falls back to a
// binary search otherwise.
func (g *Graph) CandidateCountAfterEdge(u Vertex, i int) int {
	e := g.offsets[u] + int64(i)
	if g.candAtDst != nil {
		return int(g.candAtDst[e])
	}
	return g.CandidateCount(g.dst[e], g.ts[e])
}

// HasNeighborIndex reports whether BuildNeighborIndex has run.
func (g *Graph) HasNeighborIndex() bool { return g.nbr != nil }

// HasNeighbor reports whether the graph contains any edge u->v (at any time).
// It requires BuildNeighborIndex; without the index it scans the adjacency
// list. This is the ISNEIGHBOR predicate of Algorithm 1.
func (g *Graph) HasNeighbor(u, v Vertex) bool {
	if g.nbr != nil {
		ids := g.nbr.ids[g.nbr.offsets[u]:g.nbr.offsets[u+1]]
		j := sort.Search(len(ids), func(i int) bool { return ids[i] >= v })
		return j < len(ids) && ids[j] == v
	}
	for _, d := range g.OutDst(u) {
		if d == v {
			return true
		}
	}
	return false
}

// Edges appends every edge of the graph to buf (in per-vertex newest-first
// order) and returns the extended slice. It is intended for tests, export,
// and rebuilds, not for hot paths.
func (g *Graph) Edges(buf []Edge) []Edge {
	for u := 0; u < g.NumVertices(); u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for e := lo; e < hi; e++ {
			buf = append(buf, Edge{Src: Vertex(u), Dst: g.dst[e], Time: g.ts[e]})
		}
	}
	return buf
}

// EdgesInterval extracts the temporal subgraph containing the edges with
// start <= t <= end, preserving the vertex id space. It implements the
// Edges_interval primitive of Table 2 / Algorithm 1.
func (g *Graph) EdgesInterval(start, end Time) *Graph {
	var edges []Edge
	for u := 0; u < g.NumVertices(); u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for e := lo; e < hi; e++ {
			if t := g.ts[e]; t >= start && t <= end {
				edges = append(edges, Edge{Src: Vertex(u), Dst: g.dst[e], Time: t})
			}
		}
	}
	sub, err := FromEdges(edges, WithNumVertices(g.NumVertices()))
	if err != nil {
		// Only possible failure is an empty interval; represent it as an
		// edgeless graph over the same vertex set.
		empty, _ := FromEdges(nil, WithNumVertices(g.NumVertices()))
		return empty
	}
	return sub
}

// MemoryBytes estimates the resident size of the CSR arrays plus optional
// indices. Used by the Figure 9 / Figure 12b memory experiments.
func (g *Graph) MemoryBytes() int64 {
	n := int64(len(g.offsets))*8 + int64(len(g.dst))*4 + int64(len(g.ts))*8
	if g.candAtDst != nil {
		n += int64(len(g.candAtDst)) * 4
	}
	if g.nbr != nil {
		n += int64(len(g.nbr.offsets))*8 + int64(len(g.nbr.ids))*4
	}
	return n
}

// BuildNeighborIndex materializes the sorted-unique neighbor lists used by
// HasNeighbor. Calling it twice is a no-op. It is not safe to race with
// readers; run it during preprocessing.
func (g *Graph) BuildNeighborIndex() {
	if g.nbr != nil {
		return
	}
	v := g.NumVertices()
	offsets := make([]int64, v+1)
	ids := make([]Vertex, 0, len(g.dst))
	scratch := make([]Vertex, 0, 64)
	for u := 0; u < v; u++ {
		scratch = append(scratch[:0], g.OutDst(Vertex(u))...)
		sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
		prevValid := false
		var prev Vertex
		for _, d := range scratch {
			if prevValid && d == prev {
				continue
			}
			ids = append(ids, d)
			prev, prevValid = d, true
		}
		offsets[u+1] = int64(len(ids))
	}
	g.nbr = &neighborIndex{offsets: offsets, ids: ids}
}
