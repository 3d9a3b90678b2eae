// Package core implements the TEA random walk engine: the temporal-centric
// programming model of §4.1 (Dynamic_weight / Dynamic_parameter /
// Edges_interval, Table 2), the walk driver of Algorithm 2, parallel
// preprocessing (§4.2), and the sampler abstraction that lets the same walk
// loop run over HPAT, PAT, plain ITS, or the baseline strategies.
package core

import (
	"fmt"
	"math"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
)

// ParameterFunc is the Dynamic_parameter API of Table 2: a multiplicative
// bias depending on the previous vertex and the candidate destination,
// applied through rejection sampling in the walk loop (Algorithm 2, lines
// 18–22). Implementations must be safe for concurrent use.
type ParameterFunc func(g *temporal.Graph, prev, cand temporal.Vertex) float64

// App describes a temporal random walk application in the temporal-centric
// model: how edge timestamps become sampling weights, and (optionally) a
// dynamic parameter with its rejection envelope.
type App struct {
	// Name labels the application in experiment output.
	Name string
	// Weight is the Dynamic_weight definition: how temporal information maps
	// to the transition bias (Eq. 2/3).
	Weight sampling.WeightSpec
	// Parameter, if non-nil, is the Dynamic_parameter component (Eq. 4's β);
	// MaxParameter must then bound it from above.
	Parameter ParameterFunc
	// MaxParameter is the rejection envelope for Parameter.
	MaxParameter float64
	// NeedsPrev reports that Parameter inspects the previous vertex, which
	// requires the neighbor index (ISNEIGHBOR) during preprocessing.
	NeedsPrev bool
}

// Validate checks internal consistency.
func (a App) Validate() error {
	if a.Parameter != nil && !(a.MaxParameter > 0) {
		return fmt.Errorf("core: app %q has a dynamic parameter but MaxParameter %v", a.Name, a.MaxParameter)
	}
	return nil
}

// Unbiased returns the uniform temporal walk: every candidate edge is equally
// likely (§2.3 notes TEA supports unbiased walks via uniform weights).
func Unbiased() App {
	return App{Name: "unbiased", Weight: sampling.WeightSpec{Kind: sampling.WeightUniform}}
}

// LinearTime returns the linear temporal weight walk with δ = t (§2.3 I).
func LinearTime() App {
	return App{Name: "linear", Weight: sampling.WeightSpec{Kind: sampling.WeightLinearTime}}
}

// LinearRank returns the linear temporal weight walk with δ = rank (§2.3 I).
func LinearRank() App {
	return App{Name: "linear-rank", Weight: sampling.WeightSpec{Kind: sampling.WeightLinearRank}}
}

// ExponentialWalk returns the CTDNE exponential temporal weight walk
// (§2.3 II) with decay lambda (0 selects 1.0).
func ExponentialWalk(lambda float64) App {
	return App{Name: "exponential", Weight: sampling.Exponential(lambda)}
}

// TemporalNode2Vec returns the temporal node2vec walk of §2.3 III: the
// exponential temporal weight combined with node2vec's β ∈ {1/p, 1, 1/q}
// dynamic parameter, matching Algorithm 1 of the paper.
func TemporalNode2Vec(p, q, lambda float64) App {
	if p <= 0 || q <= 0 {
		panic("core: node2vec parameters must be positive")
	}
	beta, maxBeta := Node2VecParameter(p, q, (*temporal.Graph).HasNeighbor)
	return App{
		Name:         fmt.Sprintf("node2vec(p=%g,q=%g)", p, q),
		Weight:       sampling.Exponential(lambda),
		Parameter:    beta,
		MaxParameter: maxBeta,
		NeedsPrev:    true,
	}
}

// Node2VecParameter returns node2vec's β ∈ {1/p, 1, 1/q} dynamic parameter
// and its rejection envelope max(1, 1/p, 1/q). neighbor answers "is cand
// adjacent to prev?" (d(prev, cand) = 1); the single-process app asks the
// graph's neighbor index, a shard asks a filter over the full graph.
func Node2VecParameter(p, q float64, neighbor func(g *temporal.Graph, prev, cand temporal.Vertex) bool) (ParameterFunc, float64) {
	beta := func(g *temporal.Graph, prev, cand temporal.Vertex) float64 {
		switch {
		case prev == cand:
			return 1 / p // d(w, v) = 0: return to the previous vertex
		case neighbor(g, prev, cand):
			return 1 // d(w, v) = 1
		default:
			return 1 / q // d(w, v) = 2
		}
	}
	return beta, math.Max(1, math.Max(1/p, 1/q))
}
