package mathx

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (average of the two middle values
// for even length), or NaN for empty input. The input is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Histogram counts xs into integer-width bins [lo, lo+1), [lo+1, lo+2),
// …, covering [lo, hi]. Values outside the range are clamped into the
// first or last bin. It returns one count per bin. This matches the
// paper's Figures 6 and 7, which bin optimum depths by integer stage.
func Histogram(xs []float64, lo, hi int) []int {
	if hi < lo {
		lo, hi = hi, lo
	}
	bins := make([]int, hi-lo+1)
	for _, v := range xs {
		i := int(math.Floor(v)) - lo
		if i < 0 {
			i = 0
		}
		if i >= len(bins) {
			i = len(bins) - 1
		}
		bins[i]++
	}
	return bins
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n must be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
