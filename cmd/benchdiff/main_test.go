package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

func writeTrajectory(t *testing.T, name string, recs ...bench.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	for _, rec := range recs {
		if err := bench.Append(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func record(pointsPerSec float64, pointP95 float64) bench.Record {
	rec := bench.NewRecord("test", time.Now())
	rec.Points = 10
	rec.PointsPerSec = pointsPerSec
	rec.Phases = map[string]bench.Phase{
		"point": {Count: 10, MeanUS: pointP95 / 2, P50US: pointP95 / 2, P95US: pointP95, P99US: pointP95, MaxUS: pointP95},
	}
	return rec
}

func runDiff(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String() + errOut.String()
}

func TestIdenticalRecordsPass(t *testing.T) {
	path := writeTrajectory(t, "b.json", record(100, 5000), record(100, 5000))
	code, out := runDiff(t, "-baseline", path)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("no PASS in:\n%s", out)
	}
}

func TestThroughputRegressionFails(t *testing.T) {
	// 40% throughput drop, well beyond the 20% default band.
	path := writeTrajectory(t, "b.json", record(100, 5000), record(60, 5000))
	code, out := runDiff(t, "-baseline", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "points_per_sec") || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("regression not reported:\n%s", out)
	}
}

func TestPhaseQuantileRegressionFails(t *testing.T) {
	path := writeTrajectory(t, "b.json", record(100, 5000), record(100, 9000))
	code, out := runDiff(t, "-baseline", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "phase.point.p95_us") {
		t.Fatalf("phase regression not reported:\n%s", out)
	}
}

func TestNoiseBandTolerates(t *testing.T) {
	// A 15% drop sits inside the default ±20% band.
	path := writeTrajectory(t, "b.json", record(100, 5000), record(85, 5600))
	if code, out := runDiff(t, "-baseline", path); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	// Tightening the band makes the same drop fail.
	if code, _ := runDiff(t, "-baseline", path, "-noise", "0.05"); code != 1 {
		t.Fatal("5% band did not flag a 15% drop")
	}
}

func TestTinyPhasesIgnored(t *testing.T) {
	// 2µs → 80µs is a huge relative change but below the 100µs floor.
	path := writeTrajectory(t, "b.json", record(100, 2), record(100, 80))
	if code, out := runDiff(t, "-baseline", path); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestSingleRecordAndMissingBaselinePass(t *testing.T) {
	single := writeTrajectory(t, "b.json", record(100, 5000))
	code, out := runDiff(t, "-baseline", single)
	if code != 0 || !strings.Contains(out, "nothing to compare") {
		t.Fatalf("single record: exit %d, output:\n%s", code, out)
	}

	missing := filepath.Join(t.TempDir(), "nope.json")
	code, out = runDiff(t, "-baseline", missing)
	if code != 0 || !strings.Contains(out, "nothing to compare") {
		t.Fatalf("missing baseline: exit %d, output:\n%s", code, out)
	}

	// Two-file mode with an empty baseline also passes with a message.
	cand := writeTrajectory(t, "c.json", record(100, 5000))
	code, out = runDiff(t, "-baseline", missing, "-candidate", cand)
	if code != 0 || !strings.Contains(out, "nothing to compare") {
		t.Fatalf("missing baseline vs candidate: exit %d, output:\n%s", code, out)
	}
}

func TestTwoFileMode(t *testing.T) {
	base := writeTrajectory(t, "base.json", record(100, 5000))
	cand := writeTrajectory(t, "cand.json", record(50, 5000))
	code, out := runDiff(t, "-baseline", base, "-candidate", cand)
	if code != 1 || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	// Improvement direction passes.
	if code, _ := runDiff(t, "-baseline", cand, "-candidate", base); code != 0 {
		t.Fatal("improvement flagged as regression")
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _ := runDiff(t); code != 2 {
		t.Fatal("missing -baseline did not exit 2")
	}
	if code, _ := runDiff(t, "-bogus"); code != 2 {
		t.Fatal("unknown flag did not exit 2")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := runDiff(t, "-baseline", bad); code != 2 {
		t.Fatal("malformed trajectory did not exit 2")
	}
}

func TestInvariantOverheadAbsoluteBand(t *testing.T) {
	mk := func(off, on, frac float64) bench.Record {
		rec := bench.NewRecord("conformance", time.Now())
		rec.PointsPerSecOff = bench.Ptr(off)
		rec.PointsPerSecOn = bench.Ptr(on)
		rec.InvariantOverhead = bench.Ptr(frac)
		return rec
	}
	// Overhead growing 0.01 → 0.05 is within a 0.20 absolute band.
	path := writeTrajectory(t, "b.json", mk(100, 99, 0.01), mk(100, 95, 0.05))
	if code, out := runDiff(t, "-baseline", path); code != 0 {
		t.Fatalf("small overhead growth flagged:\n%s", out)
	}
	// 0.01 → 0.40 is not.
	path = writeTrajectory(t, "b2.json", mk(100, 99, 0.01), mk(100, 71, 0.40))
	code, out := runDiff(t, "-baseline", path)
	if code != 1 || !strings.Contains(out, "invariant_overhead_frac") {
		t.Fatalf("overhead regression missed: exit %d\n%s", code, out)
	}
}

// serveRecord mimics what the depthd load harness appends to
// BENCH_serve.json: request throughput plus round-trip quantiles, no
// per-point phases.
func serveRecord(reqPerSec, roundTripP95 float64) bench.Record {
	rec := bench.NewRecord("depthd-load", time.Now())
	rec.Points = 384
	rec.PointsPerSec = reqPerSec * 3 // points ride along with requests
	rec.Requests = 112
	rec.RequestsPerSec = reqPerSec
	rec.CacheHits = 384
	rec.CacheHitRate = 0.97
	rec.Phases = map[string]bench.Phase{
		"round_trip": {Count: 32, MeanUS: roundTripP95 / 2, P50US: roundTripP95 / 2, P95US: roundTripP95, P99US: roundTripP95, MaxUS: roundTripP95},
	}
	return rec
}

func TestServeTrajectoryCompares(t *testing.T) {
	path := writeTrajectory(t, "BENCH_serve.json", serveRecord(700, 50000), serveRecord(720, 48000))
	code, out := runDiff(t, "-baseline", path)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	for _, want := range []string{"requests_per_sec", "phase.round_trip.p95_us", "PASS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// obsRecord is a serve record carrying the observability figures.
func obsRecord(written, dropped uint64, maxBurn float64) bench.Record {
	rec := serveRecord(700, 50000)
	rec.SetLedger(written, dropped)
	rec.MaxBurnRate = maxBurn
	return rec
}

func TestLedgerDropFracAbsoluteBand(t *testing.T) {
	// A few drops inside the 0.20 absolute band pass.
	path := writeTrajectory(t, "b.json", obsRecord(1000, 0, 0.1), obsRecord(950, 50, 0.1))
	if code, out := runDiff(t, "-baseline", path); code != 0 {
		t.Fatalf("5%% drop fraction flagged:\n%s", out)
	}
	// Shedding 40% of the canonical events is a regression.
	path = writeTrajectory(t, "b2.json", obsRecord(1000, 0, 0.1), obsRecord(600, 400, 0.1))
	code, out := runDiff(t, "-baseline", path)
	if code != 1 || !strings.Contains(out, "ledger_drop_frac") {
		t.Fatalf("drop-fraction regression missed: exit %d\n%s", code, out)
	}
}

func TestMaxBurnRateGatesOnlyOverBudget(t *testing.T) {
	// Growth that stays under burn 1.0 is headroom, not a regression —
	// even tripling from 0.1 to 0.3.
	path := writeTrajectory(t, "b.json", obsRecord(1000, 0, 0.1), obsRecord(1000, 0, 0.3))
	if code, out := runDiff(t, "-baseline", path); code != 0 {
		t.Fatalf("under-budget burn growth flagged:\n%s", out)
	}
	// Growing past 1.0 (over budget) beyond the noise band fails.
	path = writeTrajectory(t, "b2.json", obsRecord(1000, 0, 0.8), obsRecord(1000, 0, 2.5))
	code, out := runDiff(t, "-baseline", path)
	if code != 1 || !strings.Contains(out, "max_burn_rate") {
		t.Fatalf("over-budget burn regression missed: exit %d\n%s", code, out)
	}
	// A high-but-stable burn (within noise) does not flip the gate.
	path = writeTrajectory(t, "b3.json", obsRecord(1000, 0, 2.0), obsRecord(1000, 0, 2.1))
	if code, out := runDiff(t, "-baseline", path); code != 0 {
		t.Fatalf("stable burn flagged:\n%s", out)
	}
}

func allocRecord(perCycle, perEval float64) bench.Record {
	rec := bench.NewRecord("allocguard", time.Now())
	rec.Points = 1
	rec.AllocsPerCycle = bench.Ptr(perCycle)
	rec.AllocsPerEval = bench.Ptr(perEval)
	return rec
}

// TestAllocGuardAbsoluteBand pins the allocguard gate: a steady-state
// allocation creeping into the per-cycle loop flips benchdiff to a
// failure even from a zero baseline (where a relative band would
// divide by zero), and the zero-to-zero trajectory passes.
func TestAllocGuardAbsoluteBand(t *testing.T) {
	clean := writeTrajectory(t, "b.json", allocRecord(0, 0), allocRecord(0, 0))
	code, out := runDiff(t, "-baseline", clean)
	if code != 0 {
		t.Fatalf("zero-to-zero exit %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "allocs_per_cycle") {
		t.Fatalf("allocs_per_cycle not compared:\n%s", out)
	}

	dirty := writeTrajectory(t, "b2.json", allocRecord(0, 0), allocRecord(1, 0))
	code, out = runDiff(t, "-baseline", dirty)
	if code != 1 {
		t.Fatalf("planted per-cycle allocation: exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "allocs_per_cycle") || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("regression not reported:\n%s", out)
	}

	evalDirty := writeTrajectory(t, "b3.json", allocRecord(0, 0), allocRecord(0, 2))
	if code, out = runDiff(t, "-baseline", evalDirty); code != 1 {
		t.Fatalf("planted per-eval allocation: exit %d, want 1; output:\n%s", code, out)
	}

	// Mixed trajectories (sweep record then allocguard record) skip the
	// alloc gate rather than comparing unrelated tools' zero fields.
	mixed := writeTrajectory(t, "b4.json", record(100, 5000), allocRecord(1, 1))
	if code, out = runDiff(t, "-baseline", mixed); code != 0 {
		t.Fatalf("mixed trajectory exit %d, output:\n%s", code, out)
	}
}

// TestAllocGuardSkipsUnmeasuredFigures pins the reading of records
// written before measured zeros were kept: a figure absent from either
// record was not measured and is not compared, while a figure both
// records measured still gates.
func TestAllocGuardSkipsUnmeasuredFigures(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_alloc.json")
	legacy := `{"tool":"allocguard","started_at":"2026-01-01T00:00:00Z","points":0}` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := bench.Append(path, allocRecord(1, 0)); err != nil {
		t.Fatal(err)
	}
	code, out := runDiff(t, "-baseline", path)
	if code != 0 || strings.Contains(out, "allocs_per_cycle") {
		t.Fatalf("legacy record without alloc figures: exit %d, output:\n%s", code, out)
	}

	rec := allocRecord(0, 0)
	rec.AllocsPerCycleFastObserved = bench.Ptr(2.0)
	if err := bench.Append(path, rec); err != nil {
		t.Fatal(err)
	}
	code, out = runDiff(t, "-baseline", path)
	if code != 0 || strings.Contains(out, "allocs_per_cycle_fast_observed") {
		t.Fatalf("figure measured by one record only: exit %d, output:\n%s", code, out)
	}
	rec.AllocsPerCycleFastObserved = bench.Ptr(0.0)
	old := writeTrajectory(t, "b.json", rec)
	rec.AllocsPerCycleFastObserved = bench.Ptr(1.0)
	if code, out = runDiff(t, "-baseline", old, "-candidate", writeTrajectory(t, "c.json", rec)); code != 1 ||
		!strings.Contains(out, "allocs_per_cycle_fast_observed") {
		t.Fatalf("observed fast-path allocation missed: exit %d, output:\n%s", code, out)
	}
}

func TestServeRequestThroughputRegressionFails(t *testing.T) {
	// 40% request-throughput drop with stable latency: the serve-only
	// axis must gate on its own.
	path := writeTrajectory(t, "BENCH_serve.json", serveRecord(700, 50000), serveRecord(420, 50000))
	code, out := runDiff(t, "-baseline", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "requests_per_sec") || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("serve regression not reported:\n%s", out)
	}
}
