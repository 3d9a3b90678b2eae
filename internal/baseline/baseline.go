// Package baseline reimplements the sampling strategies of the systems TEA
// is evaluated against (§5.1): GraphWalker's full-scan sampling, KnightKing's
// rejection sampling, the CTDNE reference walker, and the naive
// per-candidate-set alias method of §3.1. Each implements the engine's
// Sampler contract, so Table 4 / Figures 2, 9–12 compare strategies under an
// identical walk loop.
//
// The baselines deliberately do NOT use TEA's insight that the walker-time
// dependency of exponential weights cancels within a vertex (Eq. 3): they
// recompute the temporal weight of every edge they touch, exactly as engines
// unaware of the trick must.
package baseline

import (
	"errors"
	"fmt"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
)

// ErrCustomWeight is returned for user-defined Dynamic_weight functions: the
// baseline reimplementations model the published systems, which only ship
// the paper's built-in temporal weights.
var ErrCustomWeight = errors.New("baseline: custom weight functions are not supported by baseline samplers")

// ErrOutOfMemory is returned by the full alias method when its O(ΣD²) tables
// exceed the configured budget — the "OOM" entries of Figure 12.
var ErrOutOfMemory = errors.New("baseline: alias method exceeds memory budget")

// weightEval evaluates one edge's temporal weight on demand, the way a
// temporal-oblivious engine must. times is the vertex's newest-first
// timestamp list; normalization for the exponential kind uses times[0] (the
// newest out-edge), constant within a vertex, so ratios match Eq. 3.
type weightEval struct {
	spec sampling.WeightSpec
	minT temporal.Time
}

func newWeightEval(g *temporal.Graph, spec sampling.WeightSpec) (weightEval, error) {
	if spec.Custom != nil {
		return weightEval{}, ErrCustomWeight
	}
	switch spec.Kind {
	case sampling.WeightUniform, sampling.WeightLinearTime, sampling.WeightLinearRank, sampling.WeightExponential:
		minT, _ := g.TimeRange()
		return weightEval{spec: spec, minT: minT}, nil
	default:
		return weightEval{}, fmt.Errorf("baseline: unknown weight kind %v", spec.Kind)
	}
}

// at computes the weight of edge i of a vertex whose newest-first timestamps
// are times.
func (w weightEval) at(times []temporal.Time, i int) float64 {
	return w.spec.EdgeWeight(times[i], times[0], w.minT, len(times)-i)
}

// dynamic reports whether the weight depends on temporal information in a
// way that forces per-step recomputation in engines without TEA's
// normalization trick (§3.1): the exponential family.
func (w weightEval) dynamic() bool {
	return w.spec.Kind == sampling.WeightExponential
}

// staticITS returns the sampler §4.3 prescribes for the baselines on
// walker-independent weights (uniform/linear): the shared per-vertex ITS
// over precomputed prefix sums, O(log D) per step. Both GraphWalker and
// KnightKing use it for the linear temporal weight walk; their Table 4 gap
// on that algorithm is the paper's 1-node-vs-8-node hardware difference,
// not an algorithmic one. It returns nil for dynamic weights.
func (w weightEval) staticITS(g *temporal.Graph) (*sampling.ITS, error) {
	if w.dynamic() {
		return nil, nil
	}
	gw, err := sampling.BuildGraphWeights(g, w.spec, 0)
	if err != nil {
		return nil, err
	}
	return sampling.NewITS(gw), nil
}
