package baseline

import (
	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/xrand"
)

// KnightKing models KnightKing's rejection-based strategy (§2.2, Figure 3d):
// propose a uniform candidate, accept with probability weight/envelope,
// repeat. No per-vertex index is needed (the strength of rejection sampling —
// weight changes never invalidate precomputed state), but skewed temporal
// weights collapse the accept area: expected trials are 1/ε = k·max/Σw, which
// approaches the degree for exponential weights (§3.1, §4.3).
//
// The envelope is the weight of the newest candidate — an O(1) bound because
// every built-in temporal weight is non-increasing along the newest-first
// list. When the trial budget is exhausted (astronomically unlikely below the
// paper's skew levels, routine beyond them), the sampler falls back to one
// exact full scan so walks always make progress; the fallback's cost is
// charged to the step.
type KnightKing struct {
	g      *temporal.Graph
	eval   weightEval
	static *sampling.ITS // non-nil for walker-independent weights (§4.3)
	// maxTrials bounds the rejection loop; 0 selects 64·k.
	maxTrials int
}

// NewKnightKing builds the baseline for the given graph and weight spec.
func NewKnightKing(g *temporal.Graph, spec sampling.WeightSpec) (*KnightKing, error) {
	ev, err := newWeightEval(g, spec)
	if err != nil {
		return nil, err
	}
	kk := &KnightKing{g: g, eval: ev}
	if kk.static, err = ev.staticITS(g); err != nil {
		return nil, err
	}
	return kk, nil
}

// Name implements the engine's Sampler contract.
func (kk *KnightKing) Name() string { return "KnightKing" }

// Sample implements the Sampler contract via bounded rejection sampling.
func (kk *KnightKing) Sample(u temporal.Vertex, k int, r *xrand.Rand) (int, int64, bool) {
	if k <= 0 {
		return 0, 0, false
	}
	if kk.static != nil {
		return kk.static.Sample(u, k, r)
	}
	deg := kk.g.Degree(u)
	if deg == 0 {
		return 0, 0, false
	}
	if k > deg {
		k = deg
	}
	times := kk.g.OutTimes(u)
	envelope := kk.eval.at(times, 0) // newest candidate bounds the prefix
	if !(envelope > 0) {
		return 0, 0, false
	}
	maxTrials := kk.maxTrials
	if maxTrials <= 0 {
		maxTrials = 64 * k
		if maxTrials < 1024 {
			maxTrials = 1024
		}
	}
	var evaluated int64
	for trial := 0; trial < maxTrials; trial++ {
		i := r.IntN(k)
		evaluated++
		if r.Range(envelope) < kk.eval.at(times, i) {
			return i, evaluated, true
		}
	}
	// Exact fallback: a single full scan, charged to this step.
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += kk.eval.at(times, i)
	}
	evaluated += int64(k)
	if !(sum > 0) {
		return 0, evaluated, false
	}
	x := r.Range(sum)
	acc := 0.0
	for i := 0; i < k; i++ {
		acc += kk.eval.at(times, i)
		evaluated++
		if x < acc {
			return i, evaluated, true
		}
	}
	return k - 1, evaluated, true
}

// MemoryBytes implements the Sampler contract: rejection sampling keeps no
// index; the static-weight ITS arrays are counted when present.
func (kk *KnightKing) MemoryBytes() int64 {
	if kk.static != nil {
		return kk.static.MemoryBytes()
	}
	return 0
}
