package core

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/power"
)

// syntheticPoint fabricates a design point with a known BIPS and
// power, bypassing the simulator — the metric plumbing under test is
// pure arithmetic over the stored figures.
func syntheticPoint(depth int, instructions, cycles uint64, gatedW, plainW float64) DepthPoint {
	res := &pipeline.Result{
		Config: pipeline.Config{
			TP: 55, TO: 3,
			Plan: pipeline.DepthPlan{Depth: depth},
		},
		ResultData: pipeline.ResultData{Instructions: instructions, Cycles: cycles},
	}
	return DepthPoint{
		Depth:      depth,
		FO4:        res.Config.CycleTime(),
		Result:     res,
		GatedPower: power.Breakdown{Gated: true, Dynamic: gatedW * 0.8, Leakage: gatedW * 0.2},
		PlainPower: power.Breakdown{Dynamic: plainW * 0.8, Leakage: plainW * 0.2},
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TestMetricCurveEdgeCases exercises the degenerate sweeps the
// resumable/cached paths can hand to analysis code: empty sweeps,
// single-point sweeps, and zero-watt points.
func TestMetricCurveEdgeCases(t *testing.T) {
	t.Run("empty sweep", func(t *testing.T) {
		s := &Sweep{}
		for _, kind := range metrics.Kinds {
			for _, gated := range []bool{false, true} {
				curve := s.MetricCurve(kind, gated)
				if curve == nil || len(curve) != 0 {
					t.Fatalf("%s gated=%v: curve = %v, want empty non-nil", kind, gated, curve)
				}
			}
		}
		if len(s.Depths()) != 0 {
			t.Fatalf("Depths() on empty sweep = %v", s.Depths())
		}
		if _, ok := s.PointAt(8); ok {
			t.Fatal("PointAt found a point in an empty sweep")
		}
	})

	t.Run("single point", func(t *testing.T) {
		s := &Sweep{Points: []DepthPoint{syntheticPoint(10, 5000, 9000, 40, 60)}}
		for _, kind := range metrics.Kinds {
			curve := s.MetricCurve(kind, true)
			if len(curve) != 1 || !finite(curve[0]) || curve[0] <= 0 {
				t.Fatalf("%s: curve = %v, want one finite positive value", kind, curve)
			}
		}
		// Gated vs plain must pick the right denominator: less power,
		// larger power-bearing metric.
		g := s.MetricCurve(metrics.BIPS3PerWatt, true)[0]
		p := s.MetricCurve(metrics.BIPS3PerWatt, false)[0]
		if g <= p {
			t.Fatalf("gated metric %g not above plain %g despite lower watts", g, p)
		}
		if s.MetricCurve(metrics.BIPS, true)[0] != s.MetricCurve(metrics.BIPS, false)[0] {
			t.Fatal("BIPS depends on the gating discipline")
		}
	})

	t.Run("zero watts", func(t *testing.T) {
		s := &Sweep{Points: []DepthPoint{syntheticPoint(10, 5000, 9000, 0, 0)}}
		for _, kind := range metrics.Kinds {
			curve := s.MetricCurve(kind, true)
			if kind.UsesPower() {
				if !math.IsNaN(curve[0]) {
					t.Fatalf("%s with zero watts = %g, want NaN", kind, curve[0])
				}
			} else if !finite(curve[0]) || curve[0] <= 0 {
				t.Fatalf("BIPS with zero watts = %g, want finite positive", curve[0])
			}
		}
	})

	t.Run("zero instructions", func(t *testing.T) {
		// A dead design retires nothing: BIPS is defined as 0 and every
		// power-bearing metric is 0 (not NaN) under positive watts.
		s := &Sweep{Points: []DepthPoint{syntheticPoint(10, 0, 9000, 40, 60)}}
		for _, kind := range metrics.Kinds {
			curve := s.MetricCurve(kind, true)
			if curve[0] != 0 {
				t.Fatalf("%s with zero instructions = %g, want 0", kind, curve[0])
			}
		}
	})
}
