package mathx

import "math"

// Bisect finds a root of f in [lo, hi] by bisection, requiring
// f(lo)·f(hi) ≤ 0. It returns the root and true on success, or 0 and
// false if the bracket is invalid. tol is the absolute x tolerance;
// maxIter bounds the iteration count.
func Bisect(f func(float64) float64, lo, hi, tol float64, maxIter int) (float64, bool) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, true
	}
	if fhi == 0 {
		return hi, true
	}
	if flo*fhi > 0 || math.IsNaN(flo) || math.IsNaN(fhi) {
		return 0, false
	}
	for i := 0; i < maxIter && hi-lo > tol; i++ {
		mid := lo + (hi-lo)/2
		fm := f(mid)
		if fm == 0 {
			return mid, true
		}
		if flo*fm < 0 {
			hi = mid
		} else {
			lo, flo = mid, fm
		}
	}
	return lo + (hi-lo)/2, true
}
