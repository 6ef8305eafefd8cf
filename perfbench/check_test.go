package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// smallSweep simulates one short design point on the default engine.
func smallSweep(t *testing.T) (core.StudyConfig, *core.Sweep) {
	t.Helper()
	prof, ok := workload.ByName("si95-gcc")
	if !ok {
		t.Fatal("si95-gcc missing from the catalog")
	}
	cfg := core.StudyConfig{Depths: []int{10}, Instructions: 3000, Warmup: 3000, Parallelism: 1}
	sw, err := core.RunSweep(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, sw
}

func TestCheckerAcceptsRealResult(t *testing.T) {
	cfg, sw := smallSweep(t)
	if err := checkPoint(sw.Points[0].Result, cfg.Instructions); err != nil {
		t.Fatalf("real point rejected: %v", err)
	}
	if err := crossCheck(cfg, sw.Workload, sw.Points[0]); err != nil {
		t.Fatalf("real point fails the per-cycle cross-check: %v", err)
	}
	if tl := checkSweeps([]*core.Sweep{sw}, cfg.Instructions); tl.Attempted != 1 || tl.Failed != 0 {
		t.Fatalf("checkSweeps = %+v, want 1 attempted, 0 failed", tl)
	}
}

// TestCheckerRejectsPlantedResults plants one wrong figure at a time
// into a copy of a real result and requires the gate to catch each.
func TestCheckerRejectsPlantedResults(t *testing.T) {
	cfg, sw := smallSweep(t)
	good := sw.Points[0]
	for _, tc := range []struct {
		name  string
		plant func(p *core.DepthPoint)
		want  string // substring of the expected failure
	}{
		{"extra cycle", func(p *core.DepthPoint) { p.Result.Cycles++ }, "invariants"},
		{"lost retirement", func(p *core.DepthPoint) {
			p.Result.Instructions--
			p.Result.UnitOps[0]--
		}, ""},
		{"budget skew", func(p *core.DepthPoint) {
			p.Result.CycleBudget[0]++
			p.Result.CycleBudget[len(p.Result.CycleBudget)-1]--
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := good
			r := *good.Result
			bad.Result = &r
			tc.plant(&bad)
			err := checkPoint(bad.Result, cfg.Instructions)
			if err == nil {
				t.Fatal("planted result passed the per-point gate")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if crossCheck(cfg, sw.Workload, bad) == nil {
				t.Error("planted result passed the per-cycle cross-check")
			}
		})
	}
}

func TestCheckerRejectsPlantedMissCount(t *testing.T) {
	cfg, sw := smallSweep(t)
	bad := sw.Points[0]
	r := *bad.Result
	r.L1Misses++ // invisible to the accounting laws, visible to the cross-check
	bad.Result = &r
	if err := crossCheck(cfg, sw.Workload, bad); err == nil {
		t.Fatal("planted miss count passed the per-cycle cross-check")
	}
	planted := &core.Sweep{Workload: sw.Workload, Points: []core.DepthPoint{bad}}
	if bytes.Equal(sweepBytes(planted), sweepBytes(sw)) {
		t.Error("repeat check accepted a differing repeat")
	}
	if digest([]*core.Sweep{planted}) == digest([]*core.Sweep{sw}) {
		t.Error("digest did not change with a planted statistic")
	}
}

func TestQuantileExact(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestCoverageMergesOverlaps(t *testing.T) {
	windows := []interval{{0, 100}}
	ivs := []interval{{10, 30}, {20, 40}, {90, 120}, {-5, 2}}
	if got := coverage(windows, ivs); got != 30+10+2 {
		t.Errorf("coverage = %d, want 42", got)
	}
}
