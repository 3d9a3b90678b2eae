package sampling

import (
	"fmt"

	"github.com/tea-graph/tea/internal/par"
	"github.com/tea-graph/tea/internal/temporal"
)

// GraphWeights holds one weight per edge of a temporal graph, laid out
// exactly like the graph's CSR edge arrays (per vertex, newest first). It is
// the shared substrate every sampler index builds from.
type GraphWeights struct {
	Flat []float64
	g    *temporal.Graph
}

// BuildGraphWeights evaluates spec on every edge of g in parallel. threads <
// 1 selects GOMAXPROCS. A weight-evaluation error (possible only with custom
// Dynamic_weight functions) stops its chunk and aborts the build; the error
// of the lowest such chunk is returned.
func BuildGraphWeights(g *temporal.Graph, spec WeightSpec, threads int) (*GraphWeights, error) {
	flat := make([]float64, g.NumEdges())
	errs := make([]error, par.Threads(threads))
	par.ForEdges(g.Offsets(), threads, func(chunk, lo, hi int) {
		for u := lo; u < hi; u++ {
			elo, _ := g.EdgeRange(temporal.Vertex(u))
			// Written in place through the aliased, zero-length buffer.
			if _, err := spec.VertexWeights(g, temporal.Vertex(u), flat[elo:elo]); err != nil {
				errs[chunk] = err
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &GraphWeights{Flat: flat, g: g}, nil
}

// WrapGraphWeights adopts an existing flat weight array (one entry per edge,
// CSR order) as a GraphWeights for g. Used when weights are deserialized
// rather than evaluated; the length must match the edge count.
func WrapGraphWeights(g *temporal.Graph, flat []float64) *GraphWeights {
	if len(flat) != g.NumEdges() {
		panic(fmt.Sprintf("sampling: wrapping %d weights for a graph with %d edges", len(flat), g.NumEdges()))
	}
	return &GraphWeights{Flat: flat, g: g}
}

// Vertex returns the weights of u's out-edges, newest first, as a view into
// the flat array.
func (w *GraphWeights) Vertex(u temporal.Vertex) []float64 {
	lo, hi := w.g.EdgeRange(u)
	return w.Flat[lo:hi]
}

// Graph returns the graph the weights were built for.
func (w *GraphWeights) Graph() *temporal.Graph { return w.g }

// MemoryBytes returns the footprint of the flat weight array.
func (w *GraphWeights) MemoryBytes() int64 { return int64(len(w.Flat)) * 8 }
