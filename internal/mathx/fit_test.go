package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPolyFitExact(t *testing.T) {
	// Fit exact cubic data: recovery should be near machine precision.
	truth := NewPoly(2, -1, 0.5, 0.125)
	var xs, ys []float64
	for x := -3.0; x <= 5; x += 0.5 {
		xs = append(xs, x)
		ys = append(ys, truth.Eval(x))
	}
	p, err := PolyFit(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-2.7, 0, 1.3, 4.9} {
		if !approxEq(p.Eval(x), truth.Eval(x), 1e-9) {
			t.Errorf("fit(%g) = %g, want %g", x, p.Eval(x), truth.Eval(x))
		}
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, 3); err == nil {
		t.Error("underdetermined fit accepted")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("negative degree accepted")
	}
	// Degenerate x (all identical) makes degree-1 fit singular.
	if _, err := PolyFit([]float64{2, 2, 2}, []float64{1, 2, 3}, 1); err == nil {
		t.Error("singular fit accepted")
	}
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !approxEq(x[i], want[i], 1e-10) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
	// Singular system.
	a = [][]float64{{1, 2}, {2, 4}}
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("singular system accepted")
	}
}

func TestSolveLinearPivoting(t *testing.T) {
	// Requires row exchange: zero on the diagonal.
	a := [][]float64{
		{0, 1},
		{1, 0},
	}
	x, err := SolveLinear(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 5, 1e-12) || !approxEq(x[1], 3, 1e-12) {
		t.Errorf("x = %v, want [5 3]", x)
	}
}

func TestPowerLawFit(t *testing.T) {
	// y = 3·x^1.3 exactly.
	var xs, ys []float64
	for p := 2; p <= 25; p++ {
		xs = append(xs, float64(p))
		ys = append(ys, 3*math.Pow(float64(p), 1.3))
	}
	k, b, err := PowerLawFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(k, 3, 1e-9) || !approxEq(b, 1.3, 1e-9) {
		t.Fatalf("k=%g b=%g, want 3, 1.3", k, b)
	}
	// Non-positive data rejected.
	if _, _, err := PowerLawFit([]float64{1, -2}, []float64{1, 2}); err == nil {
		t.Error("negative x accepted")
	}
	if _, _, err := PowerLawFit([]float64{1, 2}, []float64{0, 2}); err == nil {
		t.Error("zero y accepted")
	}
}

func TestLinearFit(t *testing.T) {
	slope, intercept, err := LinearFit([]float64{0, 1, 2, 3}, []float64{1, 3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(slope, 2, 1e-12) || !approxEq(intercept, 1, 1e-12) {
		t.Fatalf("slope=%g intercept=%g", slope, intercept)
	}
	if _, _, err := LinearFit([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("vertical data accepted")
	}
}

func TestCubicPeak(t *testing.T) {
	// Construct data with a known interior peak: metric-like shape
	// -(x-9)² scaled, sampled at integer depths, fit by a cubic.
	var xs, ys []float64
	for p := 2; p <= 25; p++ {
		x := float64(p)
		xs = append(xs, x)
		ys = append(ys, 5-0.05*(x-9)*(x-9)+0.0005*(x-9)*(x-9)*(x-9))
	}
	peak, interior, err := CubicPeak(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !interior {
		t.Fatal("expected interior peak")
	}
	if peak < 8 || peak > 10.5 {
		t.Fatalf("peak = %g, want near 9", peak)
	}
	// Monotone decreasing data: no interior peak, lower endpoint wins.
	xs, ys = nil, nil
	for p := 2; p <= 25; p++ {
		xs = append(xs, float64(p))
		ys = append(ys, 10/float64(p))
	}
	peak, interior, err = CubicPeak(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if interior {
		t.Error("monotone data reported interior peak")
	}
	if peak != 2 {
		t.Errorf("peak = %g, want 2 (lower endpoint)", peak)
	}
}

func TestRSquared(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if r := RSquared(y, y); r != 1 {
		t.Errorf("perfect fit R² = %g, want 1", r)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if r := RSquared(y, mean); r != 0 {
		t.Errorf("mean model R² = %g, want 0", r)
	}
	if r := RSquared(y, []float64{4, 3, 2, 1}); r >= 0 {
		t.Errorf("anti-fit R² = %g, want negative", r)
	}
	if !math.IsNaN(RSquared(nil, nil)) {
		t.Error("empty R² should be NaN")
	}
}

// TestPolyFitProperty: fitting data generated from a random polynomial
// of degree ≤3 with a degree-3 fit must reproduce the data.
func TestPolyFitProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := NewPoly(rng.Float64()*10-5, rng.Float64()*4-2, rng.Float64()*2-1, rng.Float64()*0.5-0.25)
		var xs, ys []float64
		for i := 0; i < 12; i++ {
			x := float64(i)*0.7 - 3
			xs = append(xs, x)
			ys = append(ys, truth.Eval(x))
		}
		p, err := PolyFit(xs, ys, 3)
		if err != nil {
			return false
		}
		for i, x := range xs {
			if !approxEq(p.Eval(x), ys[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if m := Mean(xs); m != 3 {
		t.Errorf("Mean = %g", m)
	}
	if m := Median(xs); m != 3 {
		t.Errorf("Median = %g", m)
	}
	if m := Median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even Median = %g", m)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Median(nil)) {
		t.Error("empty stats should be NaN")
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{2.1, 2.9, 5, 7.5, 100, -4}, 2, 8)
	// bins for 2,3,4,5,6,7,8
	want := []int{3, 0, 0, 1, 0, 1, 1} // -4 clamps to bin 2; 100 clamps to bin 8
	if len(h) != len(want) {
		t.Fatalf("bins = %v", h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("bins = %v, want %v", h, want)
		}
	}
}

func TestLinspace(t *testing.T) {
	ls := Linspace(2, 25, 24)
	if len(ls) != 24 || ls[0] != 2 || ls[23] != 25 {
		t.Errorf("Linspace = %v", ls)
	}
	if !approxEq(ls[1]-ls[0], 1, 1e-12) {
		t.Errorf("Linspace step = %g", ls[1]-ls[0])
	}
}
