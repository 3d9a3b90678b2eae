// Package tea is a general-purpose temporal graph random walk engine, a Go
// implementation of "TEA: A General-Purpose Temporal Graph Random Walk
// Engine" (EuroSys 2023).
//
// A temporal graph is an edge stream (src, dst, time); a temporal random
// walk must traverse edges in strictly increasing time order. Sampling the
// next edge is the expensive step: the candidate set changes with the
// walker's arrival time, which defeats classic alias tables (space blows up)
// and rejection sampling (skewed temporal weights collapse the accept area).
// TEA's hybrid scheme — hierarchical persistent alias tables (HPAT) over
// newest-first adjacency prefixes, selected by inverse transform sampling
// over a binary trunk decomposition — samples in O(log log D) with
// O(D log D) space.
//
// Quick start:
//
//	g, err := tea.FromEdges(edges)            // or tea.LoadTextFile(path)
//	eng, err := tea.NewEngine(g, tea.ExponentialWalk(0.01), tea.Options{})
//	res, err := eng.Run(tea.WalkConfig{Length: 80, KeepPaths: true})
//	for _, p := range res.Paths { ... }
//
// The temporal-centric programming model of the paper (Dynamic_weight,
// Dynamic_parameter, Edges_interval) maps onto App.Weight (including custom
// weight functions), App.Parameter, and Graph.EdgesInterval. Streaming
// ingestion lives behind NewStream; out-of-core execution behind the ooc
// subpackage re-exports.
package tea

import (
	"fmt"
	"io"

	"github.com/tea-graph/tea/internal/core"
	"github.com/tea-graph/tea/internal/edgeio"
	"github.com/tea-graph/tea/internal/gen"
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/stream"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/vfs"
)

// Core temporal-graph types (see internal/temporal for full documentation).
type (
	// Vertex identifies a vertex; the id space is dense [0, NumVertices).
	Vertex = temporal.Vertex
	// Time is an edge timestamp; any int64 clock works.
	Time = temporal.Time
	// Edge is one element of a temporal edge stream.
	Edge = temporal.Edge
	// Graph is an immutable temporal graph with newest-first adjacency.
	Graph = temporal.Graph
)

// MinTime and MaxTime bound the Time domain.
const (
	MinTime = temporal.MinTime
	MaxTime = temporal.MaxTime
)

// Engine types (see internal/core).
type (
	// Engine runs temporal random walks for one application.
	Engine = core.Engine
	// App describes a walk application in the temporal-centric model.
	App = core.App
	// Options configures engine construction (sampling method, threads).
	Options = core.Options
	// WalkConfig parameterizes a run: R, L, sources, seed, threads.
	WalkConfig = core.WalkConfig
	// Result aggregates a run: costs, duration, optional paths.
	Result = core.Result
	// Path is one sampled temporal walk.
	Path = core.Path
	// Method selects the sampling structure (HPAT, PAT, ITS).
	Method = core.Method
	// Sampler is the pluggable edge-sampling contract.
	Sampler = core.Sampler
	// WeightSpec selects how timestamps become sampling weights — the
	// Dynamic_weight API.
	WeightSpec = sampling.WeightSpec
	// WeightKind enumerates the built-in temporal weights.
	WeightKind = sampling.WeightKind
)

// Sampling method selectors.
const (
	MethodHPAT        = core.MethodHPAT
	MethodHPATNoIndex = core.MethodHPATNoIndex
	MethodPAT         = core.MethodPAT
	MethodITS         = core.MethodITS
)

// Built-in weight kinds.
const (
	WeightUniform     = sampling.WeightUniform
	WeightLinearTime  = sampling.WeightLinearTime
	WeightLinearRank  = sampling.WeightLinearRank
	WeightExponential = sampling.WeightExponential
)

// FromEdges builds an immutable temporal graph from an edge stream, sorting
// each vertex's out-edges newest-first in O(|E|).
func FromEdges(edges []Edge) (*Graph, error) {
	return temporal.FromEdges(edges)
}

// FromEdgesSized builds a graph with an explicit vertex-space size.
func FromEdgesSized(edges []Edge, numVertices int) (*Graph, error) {
	return temporal.FromEdges(edges, temporal.WithNumVertices(numVertices))
}

// LoadTextFile reads a "src dst time" edge list (KONECT-style, '#'/'%'
// comments) and builds the graph.
func LoadTextFile(path string) (*Graph, error) {
	return edgeio.LoadGraph(path, edgeio.ReadText)
}

// LoadBinaryFile reads the packed binary edge-stream format written by
// WriteBinaryFile (or cmd/teagen).
func LoadBinaryFile(path string) (*Graph, error) {
	return edgeio.LoadGraph(path, edgeio.ReadBinary)
}

// WriteBinaryFile writes edges in the packed binary format. The write is
// atomic (vfs.ReplaceFile): a crash or write failure partway leaves any
// previous file at path intact.
func WriteBinaryFile(path string, edges []Edge) error {
	err := vfs.ReplaceFile(fileFS, path, ".teag-*", func(w io.Writer) error {
		return edgeio.WriteBinary(w, edges)
	})
	if err != nil {
		return fmt.Errorf("tea: %w", err)
	}
	return nil
}

// CommuteGraph returns the paper's Figure 1 commuting network, the running
// example of the manuscript. Useful for experimentation and tests.
func CommuteGraph() *Graph { return temporal.CommuteGraph() }

// NewEngine preprocesses g for the application (candidate search, weight
// evaluation, index construction per §4.2 of the paper) and returns a ready
// engine.
func NewEngine(g *Graph, app App, opts Options) (*Engine, error) {
	return core.NewEngine(g, app, opts)
}

// Built-in applications (§2.3 of the paper).

// Unbiased returns the uniform temporal walk.
func Unbiased() App { return core.Unbiased() }

// LinearTime returns the linear temporal weight walk with δ = t.
func LinearTime() App { return core.LinearTime() }

// LinearRank returns the linear temporal weight walk with δ = rank.
func LinearRank() App { return core.LinearRank() }

// ExponentialWalk returns the CTDNE exponential temporal weight walk with
// decay lambda (0 selects 1.0).
func ExponentialWalk(lambda float64) App { return core.ExponentialWalk(lambda) }

// TemporalNode2Vec returns the temporal node2vec walk with return parameter
// p, in-out parameter q, and exponential decay lambda.
func TemporalNode2Vec(p, q, lambda float64) App { return core.TemporalNode2Vec(p, q, lambda) }

// Exponential returns the exponential weight spec for custom App
// construction.
func Exponential(lambda float64) WeightSpec { return sampling.Exponential(lambda) }

// Streaming support (§3.5 of the paper).
type (
	// Stream is a streaming temporal graph with incremental HPAT segments.
	Stream = stream.Graph
	// StreamConfig parameterizes a stream.
	StreamConfig = stream.Config
)

// NewStream creates an empty streaming temporal graph; append batches of
// strictly newer edges with AppendBatch and sample walks directly.
func NewStream(cfg StreamConfig) (*Stream, error) { return stream.New(cfg) }

// Dataset generation (the scaled Table 3 profiles).
type DatasetProfile = gen.Profile

// Datasets returns the four synthetic profiles mirroring the paper's
// evaluation datasets (growth, edit, delicious, twitter) at 1/1000 scale.
func Datasets() []DatasetProfile { return gen.Profiles() }
