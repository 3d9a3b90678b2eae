// Package measure holds the benchmark's arithmetic and bookkeeping: order
// statistics over windows, the in-memory span recorder, and process memory.
package measure

import (
	"math"
	"slices"
)

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified. An
// empty xs yields NaN.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Summary is the median of a set of samples with its quartiles and size.
type Summary struct {
	Median, P25, P75 float64
	N                int
}

// Summarize returns the median and quartiles of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{Median: math.NaN(), P25: math.NaN(), P75: math.NaN()}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return Summary{
		Median: quantileSorted(s, 0.5),
		P25:    quantileSorted(s, 0.25),
		P75:    quantileSorted(s, 0.75),
		N:      len(s),
	}
}

// Spread is the interquartile range as a share of the median.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.P75 - s.P25) / s.Median)
}

// MinTailSamples is how many samples must lie beyond a reported percentile.
const MinTailSamples = 20

// TailPercentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, or NaN with ok=false when fewer than MinTailSamples samples lie beyond
// it — a p99 of 300 samples is the 3rd-largest value and says nothing.
func TailPercentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	beyond := int(float64(n) * (100 - p) / 100)
	if beyond < MinTailSamples {
		return math.NaN(), false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	return s[rank-1], true
}
