// Package temporal implements the temporal-graph substrate of the TEA engine:
// an immutable CSR representation whose per-vertex out-edge lists are sorted
// by decreasing timestamp, construction by a counting sort by source and a
// per-vertex order pass on edge-balanced chunks (§4.2 of the paper),
// candidate-edge-set search, and temporal subgraph extraction (the
// Edges_interval primitive of Table 2).
//
// The central invariant is that, because out-edges are stored newest-first,
// the candidate edge set Γ_t(u) = {(u,v,t') : t' > t} is always a prefix of
// u's adjacency list. Every sampler in the engine builds on that prefix
// property.
package temporal

import (
	"errors"
	"fmt"
	"math"
)

// Vertex identifies a vertex. Graphs are limited to 2^32 vertices, which
// covers every dataset in the paper with a 2x smaller edge array than int64
// ids would need.
type Vertex uint32

// Time is the timestamp attached to an edge: the instant the edge appeared in
// the stream. Any int64 clock (epoch seconds, milliseconds, logical counters)
// works; the engine only compares timestamps.
type Time int64

// MinTime and MaxTime bound the Time domain. A walk that starts "from a
// vertex" rather than from an edge uses MinTime as its arrival time so that
// every out-edge is a candidate.
const (
	MinTime Time = math.MinInt64
	MaxTime Time = math.MaxInt64
)

// Edge is one element of a temporal edge stream: a directed edge from Src to
// Dst that appeared at Time.
type Edge struct {
	Src, Dst Vertex
	Time     Time
}

// String renders the edge as (src, dst, t), the triplet notation of §2.1.
func (e Edge) String() string {
	return fmt.Sprintf("(%d, %d, %d)", e.Src, e.Dst, e.Time)
}

// ErrNoEdges is returned when a graph is constructed from an empty stream and
// the caller did not force a vertex count.
var ErrNoEdges = errors.New("temporal: edge stream is empty")

// ErrVertexRange is returned when an edge references a vertex outside the
// declared vertex range.
var ErrVertexRange = errors.New("temporal: vertex id out of range")
