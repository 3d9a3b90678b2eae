package hpat

import (
	"fmt"
	"math"
	"testing"

	"github.com/tea-graph/tea/internal/sampling"
	"github.com/tea-graph/tea/internal/temporal"
	"github.com/tea-graph/tea/internal/testutil"
	"github.com/tea-graph/tea/internal/xrand"
)

// The conformance suite is the oracle for the storage layout: whatever the
// bytes look like, a draw from the k newest edges must follow their weights
// (Eq. 2 of the paper). It has a noise-free half (fold the stored slots back
// into per-edge mass) and a seeded statistical half (chi-square of real
// draws), both over degrees and prefix lengths that straddle every layout
// boundary: the table floor 2^minTableLevel, powers of two and their
// neighbours.

var conformanceDegrees = []int{1, 31, 32, 33, 63, 64, 65, 1000, 4097}

// conformancePrefixes returns {1, 31, 32, 33, 2^j, 2^j−1, deg} up to deg.
func conformancePrefixes(deg int) []int {
	seen := map[int]bool{}
	var ks []int
	add := func(k int) {
		if k >= 1 && k <= deg && !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	for _, k := range []int{1, 31, 32, 33, deg} {
		add(k)
	}
	for p := 2; p <= deg+1; p <<= 1 {
		add(p)
		add(p - 1)
	}
	return ks
}

// ConformanceCase is one hub of the suite: a graph whose vertex 0 has Degree
// out-edges at times 1..Degree, and the exact weights of those edges, newest
// first, under Spec.
type ConformanceCase struct {
	Spec    sampling.WeightSpec
	Degree  int
	Graph   *temporal.Graph
	Weights *sampling.GraphWeights
}

// ForEachConformanceCase runs body once per weight function and degree. It is
// exported (from a test file, so to tests only) for the stream package's half
// of the suite, which cannot live in package hpat without an import cycle.
func ForEachConformanceCase(t *testing.T, body func(t *testing.T, c ConformanceCase)) {
	for _, deg := range conformanceDegrees {
		for _, spec := range []sampling.WeightSpec{
			sampling.Exponential(3 / float64(deg)), // newest : oldest ≈ 20 : 1
			{Kind: sampling.WeightLinearRank},
			{Kind: sampling.WeightUniform},
		} {
			g := testutil.SkewedGraph(t, 8, deg)
			c := ConformanceCase{Spec: spec, Degree: deg, Graph: g, Weights: testutil.Weights(t, g, spec)}
			t.Run(fmt.Sprintf("%v/deg=%d", spec.Kind, deg), func(t *testing.T) { body(t, c) })
		}
	}
}

// CheckPrefixes draws from every conformance prefix of the case's hub and
// compares against the exact weights. draw(k) returns the newest-first index
// of one sampled edge among the k newest.
func (c ConformanceCase) CheckPrefixes(t *testing.T, draw func(k int) (int, bool)) {
	t.Helper()
	for _, k := range conformancePrefixes(c.Degree) {
		n := max(20000, 40*k)
		testutil.CheckDistribution(t, fmt.Sprintf("k=%d", k), c.Weights.Vertex(0)[:k], n, func() (int, bool) { return draw(k) })
	}
}

func TestConformanceIndexSample(t *testing.T) {
	ForEachConformanceCase(t, func(t *testing.T, c ConformanceCase) {
		for _, disableAux := range []bool{false, true} {
			idx := Build(c.Weights, Config{DisableAuxIndex: disableAux})
			r := xrand.New(uint64(c.Degree))
			c.CheckPrefixes(t, func(k int) (int, bool) {
				e, _, ok := idx.Sample(0, k, r)
				return e, ok
			})
		}
	})
}

func TestConformanceTableSample(t *testing.T) {
	ForEachConformanceCase(t, func(t *testing.T, c ConformanceCase) {
		tab := NewTable(c.Weights.Vertex(0))
		r := xrand.New(uint64(c.Degree) + 1)
		c.CheckPrefixes(t, func(k int) (int, bool) {
			e, _, ok := tab.Sample(k, nil, r)
			return e, ok
		})
	})
}

// trunkMass folds one trunk's packed slots back into the probability mass
// each of its edges receives, in units of 1/size: a slot keeps t/2^32 of its
// own unit and hands the rest to its alias.
func trunkMass(trunk []uint64) []float64 {
	mass := make([]float64, len(trunk))
	for i, s := range trunk {
		keep := float64(s>>32) / (1 << 32)
		alias := int(uint32(s)) & (len(trunk) - 1)
		mass[i] += keep
		mass[alias] += 1 - keep
	}
	return mass
}

// Noise-free: the stored words of every trunk reproduce the trunk's weight
// distribution to within the fixed-point quantisation, 2^-32 per slot.
func TestConformanceMassReconstruction(t *testing.T) {
	ForEachConformanceCase(t, func(t *testing.T, c ConformanceCase) {
		w := c.Weights.Vertex(0)
		tab := NewTable(w)
		for level := minTableLevel; level <= topLevel(c.Degree); level++ {
			size := 1 << level
			base := levelBase(c.Degree, level)
			for lo := 0; lo+size <= c.Degree; lo += size {
				total := 0.0
				for _, x := range w[lo : lo+size] {
					total += x
				}
				mass := trunkMass(tab.slots[base+lo : base+lo+size])
				tol := float64(size) / (1 << 31)
				for j, m := range mass {
					if got, want := m/float64(size), w[lo+j]/total; math.Abs(got-want) > tol {
						t.Fatalf("level %d trunk at %d edge %d: stored mass %.12g, weight share %.12g", level, lo, j, got, want)
					}
				}
			}
		}
	})
}

// A run of zero weights that spans whole table trunks is never returned: its
// prefix sums are equal at both ends, so the boundary ITS, which picks the
// first boundary whose end sum exceeds x ≥ its start sum, cannot select it —
// and its slots, left zero, are never read. Every prefix, both sampler types.
func TestConformanceZeroWeightTrunk(t *testing.T) {
	w := make([]float64, 200)
	for i := range w {
		w[i] = float64(1 + i%5)
	}
	for i := 64; i < 160; i++ { // covers [64,128) at level 6 and three level-5 trunks
		w[i] = 0
	}
	edges := make([]temporal.Edge, len(w))
	for i := range edges {
		edges[i] = temporal.Edge{Src: 0, Dst: 1, Time: temporal.Time(i + 1)}
	}
	g, err := temporal.FromEdges(edges, temporal.WithNumVertices(2))
	if err != nil {
		t.Fatal(err)
	}
	idx := Build(sampling.WrapGraphWeights(g, w), Config{})
	tab := NewTable(w)
	for _, s := range tab.slots[levelBase(len(w), 6)+64 : levelBase(len(w), 6)+128] {
		if s != 0 {
			t.Fatal("weightless trunk has slots built")
		}
	}
	r := xrand.New(7)
	for k := 1; k <= len(w); k++ {
		for i := 0; i < 200; i++ {
			e, _, ok := idx.Sample(0, k, r)
			e2, _, ok2 := tab.Sample(k, nil, r)
			if !ok || !ok2 || w[e] == 0 || w[e2] == 0 || e >= k || e2 >= k {
				t.Fatalf("k=%d: drew (%d,%v) and (%d,%v)", k, e, ok, e2, ok2)
			}
		}
	}
	// A prefix that is nothing but the weightless run carries no mass.
	if _, _, ok := NewTable(w[64:160]).Sample(96, nil, r); ok {
		t.Fatal("sampled from an all-zero prefix")
	}
}
