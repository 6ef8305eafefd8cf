package mathx

import (
	"math"
	"testing"
)

func TestBisect(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	r, ok := Bisect(f, 0, 2, 1e-12, 200)
	if !ok || !approxEq(r, math.Sqrt2, 1e-10) {
		t.Fatalf("Bisect sqrt2 = %v ok=%v", r, ok)
	}
	// Invalid bracket.
	if _, ok := Bisect(f, 2, 3, 1e-12, 100); ok {
		t.Error("Bisect accepted bracket without sign change")
	}
	// Root exactly at an endpoint.
	g := func(x float64) float64 { return x*x - 4 }
	if r, ok := Bisect(g, 2, 3, 1e-12, 100); !ok || r != 2 {
		t.Errorf("Bisect endpoint root = %v ok=%v", r, ok)
	}
}

func TestGoldenMax(t *testing.T) {
	f := func(x float64) float64 { return -(x - 3.25) * (x - 3.25) }
	x := GoldenMax(f, 0, 10, 1e-9)
	if !approxEq(x, 3.25, 1e-6) {
		t.Fatalf("GoldenMax = %v, want 3.25", x)
	}
}

func TestGridThenGoldenMax(t *testing.T) {
	// Bimodal: global max at x≈8, local at x≈2.
	f := func(x float64) float64 {
		return 2*math.Exp(-(x-8)*(x-8)) + math.Exp(-(x-2)*(x-2))
	}
	x := GridThenGoldenMax(f, 0, 10, 101, 1e-9)
	if !approxEq(x, 8, 1e-4) {
		t.Fatalf("GridThenGoldenMax = %v, want ~8", x)
	}
	// Monotone increasing: supremum at the upper endpoint.
	x = GridThenGoldenMax(func(x float64) float64 { return x }, 0, 5, 11, 1e-9)
	if !approxEq(x, 5, 1e-6) {
		t.Fatalf("monotone max = %v, want 5", x)
	}
}

func TestMaximizeClassification(t *testing.T) {
	// Interior optimum.
	r := Maximize(func(x float64) float64 { return -(x - 4) * (x - 4) }, 1, 25, 200, 1e-9)
	if !r.Inner || !approxEq(r.X, 4, 1e-5) {
		t.Fatalf("interior: %+v", r)
	}
	// Decreasing: pinned at lower bound (the BIPS/W case — optimum is
	// a single-stage design).
	r = Maximize(func(x float64) float64 { return 1 / x }, 1, 25, 200, 1e-9)
	if !r.AtLo || r.X != 1 {
		t.Fatalf("at-lo: %+v", r)
	}
	// Increasing: pinned at upper bound.
	r = Maximize(func(x float64) float64 { return x * x }, 1, 25, 200, 1e-9)
	if !r.AtHi || r.X != 25 {
		t.Fatalf("at-hi: %+v", r)
	}
}
