// Package sampling provides the Monte Carlo sampling primitives that TEA
// composes (§2.2 of the paper): per-vertex inverse transform sampling over
// prefix sums and Vose alias tables, plus the temporal edge-weight functions
// of §2.3 (uniform, linear, exponential, and user-defined). Each is written
// once, here, and every index, baseline and the stream build on these.
//
// All primitives operate on a single vertex's out-edge list in
// newest-first order, so a candidate edge set is always a prefix of the
// weight array. This prefix property is what the higher-level PAT/HPAT
// structures exploit.
package sampling

import (
	"fmt"
	"math"

	"github.com/tea-graph/tea/internal/temporal"
)

// WeightKind enumerates the built-in temporal weight functions of §2.3.
type WeightKind int

const (
	// WeightUniform assigns every candidate the same weight: the unbiased
	// temporal walk.
	WeightUniform WeightKind = iota
	// WeightLinearTime sets δ((u,v,t)) = t − t_min(G) + 1: the "weight is the
	// time instance" variant of the linear temporal weight walk (the offset
	// keeps weights strictly positive without changing ratios meaningfully
	// for epoch-like clocks).
	WeightLinearTime
	// WeightLinearRank sets δ = rank of the edge among the vertex's edges in
	// increasing time order (oldest edge has rank 1), the rank() variant of
	// the linear temporal weight walk.
	WeightLinearRank
	// WeightExponential sets δ = exp(λ·(t − t_max(u))): the CTDNE exponential
	// temporal weight (Eq. 3). The per-vertex shift by the newest out-edge
	// time keeps exp() in range and cancels in the normalization, because
	// sampling always happens within one vertex's candidate set.
	WeightExponential
)

// String names the weight kind.
func (k WeightKind) String() string {
	switch k {
	case WeightUniform:
		return "uniform"
	case WeightLinearTime:
		return "linear-time"
	case WeightLinearRank:
		return "linear-rank"
	case WeightExponential:
		return "exponential"
	default:
		return fmt.Sprintf("WeightKind(%d)", int(k))
	}
}

// WeightSpec selects how edge weights are derived from temporal information.
// It is the engine-level form of the paper's Dynamic_weight() API: Custom, if
// non-nil, overrides Kind.
type WeightSpec struct {
	Kind WeightKind
	// Lambda scales the exponent of WeightExponential; 0 means 1.0.
	Lambda float64
	// Custom is a user Dynamic_weight function mapping an edge timestamp to a
	// positive weight. When set, it takes precedence over Kind. Custom
	// functions must be safe for concurrent use.
	Custom func(temporal.Time) float64
}

// Exponential returns the CTDNE exponential weight spec with decay λ.
func Exponential(lambda float64) WeightSpec {
	return WeightSpec{Kind: WeightExponential, Lambda: lambda}
}

// EffectiveLambda returns the exponential decay the spec samples with:
// Lambda, or 1.0 when Lambda is 0.
func (s WeightSpec) EffectiveLambda() float64 {
	if s.Lambda == 0 {
		return 1
	}
	return s.Lambda
}

// EdgeWeight is the built-in temporal weight of one out-edge timed t of a
// vertex whose newest out-edge is timed newest: minT is the time linear-time
// weights count from, and rank the edge's rank among the vertex's edges in
// increasing time order (the oldest has rank 1). It is the one formula every
// sampler evaluates — index builds, the baselines' on-demand weights, the
// out-of-core walker and the stream's segments — so they agree bit for bit.
// Custom is ignored; an unknown kind weighs 0.
func (s WeightSpec) EdgeWeight(t, newest, minT temporal.Time, rank int) float64 {
	switch s.Kind {
	case WeightUniform:
		return uniformWeight()
	case WeightLinearTime:
		return linearTimeWeight(t, minT)
	case WeightLinearRank:
		return linearRankWeight(rank)
	case WeightExponential:
		return exponentialWeight(s.EffectiveLambda(), t, newest)
	}
	return 0
}

// The formula of each built-in kind, written once. EdgeWeight picks one per
// edge; VertexWeights picks one per vertex, so its loop inlines the formula
// instead of calling EdgeWeight per edge.
func uniformWeight() float64                         { return 1 }
func linearTimeWeight(t, minT temporal.Time) float64 { return float64(t-minT) + 1 }
func linearRankWeight(rank int) float64              { return float64(rank) }
func exponentialWeight(lambda float64, t, newest temporal.Time) float64 {
	return math.Exp(lambda * float64(t-newest))
}

// VertexWeights computes the weight of every out-edge of u, newest first,
// appending to buf. Weights are guaranteed positive; non-finite or
// non-positive custom weights are reported as an error.
func (s WeightSpec) VertexWeights(g *temporal.Graph, u temporal.Vertex, buf []float64) ([]float64, error) {
	times := g.OutTimes(u)
	if s.Custom != nil {
		for _, t := range times {
			w := s.Custom(t)
			if !(w > 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("sampling: custom weight %v for time %d is not a positive finite number", w, t)
			}
			buf = append(buf, w)
		}
		return buf, nil
	}
	switch s.Kind {
	case WeightUniform:
		for range times {
			buf = append(buf, uniformWeight())
		}
	case WeightLinearTime:
		minT, _ := g.TimeRange()
		for _, t := range times {
			buf = append(buf, linearTimeWeight(t, minT))
		}
	case WeightLinearRank:
		// Newest edge has the highest rank n, oldest has rank 1.
		for i := range times {
			buf = append(buf, linearRankWeight(len(times)-i))
		}
	case WeightExponential:
		lambda := s.EffectiveLambda()
		for _, t := range times {
			buf = append(buf, exponentialWeight(lambda, t, times[0]))
		}
	default:
		return nil, fmt.Errorf("sampling: unknown weight kind %v", s.Kind)
	}
	return buf, nil
}
