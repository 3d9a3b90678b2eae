package temporal

import (
	"fmt"
	"runtime"
	"sync"
)

// BuildOption configures FromEdges.
type BuildOption func(*buildConfig)

type buildConfig struct {
	numVertices int // 0 = infer max id + 1
}

// WithNumVertices forces the vertex id space to [0, n) even if the stream
// references fewer vertices. FromEdges fails if an edge exceeds the range.
func WithNumVertices(n int) BuildOption {
	return func(c *buildConfig) { c.numVertices = n }
}

// FromEdges builds an immutable Graph from a temporal edge stream.
//
// Construction follows §4.2 of the paper: the stream is radix-sorted so that
// each vertex's out-edges end up in decreasing time order (ties broken by
// ascending destination), in O(|E|) time. The stream may arrive in any order.
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
			if e.Src > maxID {
				maxID = e.Src
			}
			if e.Dst > maxID {
				maxID = e.Dst
			}
		}
		numV = int(maxID) + 1
	} else {
		for _, e := range edges {
			if int(e.Src) >= numV || int(e.Dst) >= numV {
				return nil, fmt.Errorf("%w: edge %v with %d vertices", ErrVertexRange, e, numV)
			}
		}
	}

	// Stable multi-pass sort: dst ascending, then time descending, then a
	// counting sort by src. Stability of each pass makes the per-vertex order
	// exactly (time desc, dst asc).
	sorted := make([]Edge, len(edges))
	copy(sorted, edges)
	scratch := make([]Edge, len(edges))
	radixByDstAsc(sorted, scratch)
	radixByTimeDesc(sorted, scratch)

	offsets := make([]int64, numV+1)
	for _, e := range sorted {
		offsets[e.Src+1]++
	}
	maxDeg := int64(0)
	for u := 1; u <= numV; u++ {
		if offsets[u] > maxDeg {
			maxDeg = offsets[u]
		}
		offsets[u] += offsets[u-1]
	}
	dst := make([]Vertex, len(sorted))
	ts := make([]Time, len(sorted))
	cursor := make([]int64, numV)
	for _, e := range sorted {
		p := offsets[e.Src] + cursor[e.Src]
		cursor[e.Src]++
		dst[p] = e.Dst
		ts[p] = e.Time
	}

	g := &Graph{offsets: offsets, dst: dst, ts: ts, maxDegree: int(maxDeg)}
	if len(sorted) > 0 {
		lo, hi := sorted[0].Time, sorted[0].Time
		for _, e := range sorted {
			if e.Time < lo {
				lo = e.Time
			}
			if e.Time > hi {
				hi = e.Time
			}
		}
		g.minTime, g.maxTime = lo, hi
	}
	return g, nil
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
// threads < 1 selects runtime.GOMAXPROCS(0). Calling it again recomputes the
// table (it is idempotent for an immutable graph).
func (g *Graph) PrecomputeCandidates(threads int) {
	if threads < 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	n := len(g.dst)
	cand := make([]int32, n)
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	if chunk == 0 {
		chunk = 1
	}
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for e := lo; e < hi; e++ {
				cand[e] = int32(g.CandidateCount(g.dst[e], g.ts[e]))
			}
		}(start, end)
	}
	wg.Wait()
	g.candAtDst = cand
}
