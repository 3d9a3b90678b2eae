package stats

import (
	"math"
	"strings"
	"testing"
)

func TestCostAddAndRates(t *testing.T) {
	var c Cost
	c.Add(Cost{Steps: 10, EdgesEvaluated: 55, Trials: 20, BytesRead: 4096})
	c.Add(Cost{Steps: 10, EdgesEvaluated: 45, Rejected: 5, ReadOps: 3})
	if c.Steps != 20 || c.EdgesEvaluated != 100 || c.Trials != 20 {
		t.Fatalf("merge wrong: %+v", c)
	}
	if c.EdgesPerStep() != 5 {
		t.Fatalf("EdgesPerStep = %v", c.EdgesPerStep())
	}
	if c.TrialsPerStep() != 1 {
		t.Fatalf("TrialsPerStep = %v", c.TrialsPerStep())
	}
}

func TestCostZeroSteps(t *testing.T) {
	var c Cost
	if c.EdgesPerStep() != 0 || c.TrialsPerStep() != 0 {
		t.Fatal("zero-step rates should be 0")
	}
}

func TestCostString(t *testing.T) {
	c := Cost{Steps: 2, EdgesEvaluated: 11}
	if !strings.Contains(c.String(), "edges/step=5.50") {
		t.Fatalf("String = %q", c.String())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(5)
	for _, v := range []int{0, 1, 1, 4, 9, -1} {
		h.Observe(v)
	}
	if h.Count(1) != 2 || h.Count(0) != 1 || h.Count(4) != 1 {
		t.Fatalf("counts wrong: %+v", h)
	}
	if h.Count(9) != 0 {
		t.Fatal("out-of-range Count should be 0")
	}
	if h.Overflow() != 2 {
		t.Fatalf("Overflow = %d", h.Overflow())
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d", h.Total())
	}
}

// Count must return 0 for any out-of-range value even when out-of-range
// observations were recorded: those are reported only via Overflow, never
// attributed to a bucket.
func TestHistogramOverflowSemantics(t *testing.T) {
	h := NewHistogram(3)
	h.Observe(7)
	h.Observe(-2)
	h.Observe(1)
	if h.Overflow() != 2 {
		t.Fatalf("Overflow = %d, want 2", h.Overflow())
	}
	for _, v := range []int{7, -2, 3, -1} {
		if h.Count(v) != 0 {
			t.Fatalf("Count(%d) = %d, want 0 for out-of-range", v, h.Count(v))
		}
	}
	if h.Count(1) != 1 {
		t.Fatalf("in-range count lost: Count(1) = %d", h.Count(1))
	}
	if h.Total() != 3 {
		t.Fatalf("Total = %d, want overflow included", h.Total())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(3), NewHistogram(3)
	a.Observe(1)
	b.Observe(1)
	b.Observe(5)
	a.Merge(b)
	if a.Count(1) != 2 || a.Overflow() != 1 {
		t.Fatalf("merge wrong: %+v", a)
	}
}

func TestHistogramMergePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogram(3).Merge(NewHistogram(4))
}

func TestChiSquareExact(t *testing.T) {
	// Perfect proportions give statistic 0.
	stat, df, err := ChiSquare([]int64{10, 20, 30}, []float64{1, 2, 3})
	if err != nil || stat != 0 || df != 2 {
		t.Fatalf("stat=%v df=%d err=%v", stat, df, err)
	}
}

func TestChiSquareZeroWeightViolation(t *testing.T) {
	stat, _, err := ChiSquare([]int64{5, 1}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(stat, 1) {
		t.Fatalf("impossible observation gave stat %v", stat)
	}
}

func TestChiSquareZeroWeightOK(t *testing.T) {
	stat, df, err := ChiSquare([]int64{5, 0}, []float64{1, 0})
	if err != nil || stat != 0 || df != 1 {
		t.Fatalf("stat=%v df=%d err=%v", stat, df, err)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, _, err := ChiSquare([]int64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := ChiSquare([]int64{1}, []float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, _, err := ChiSquare([]int64{0}, []float64{1}); err == nil {
		t.Fatal("zero observations accepted")
	}
	if _, _, err := ChiSquare([]int64{1}, []float64{0}); err == nil {
		t.Fatal("zero total weight accepted")
	}
}

func TestChiSquareDetectsBias(t *testing.T) {
	// Heavily skewed observations against uniform weights must exceed the
	// generous limit.
	obs := []int64{1000, 100, 100, 100}
	stat, df, err := ChiSquare(obs, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if stat <= ChiSquareGenerousLimit(df) {
		t.Fatalf("biased sample passed: stat %.1f", stat)
	}
}
