package power_test

import (
	"flag"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// allocBenchOut, when set, appends one allocguard record to the given
// bench trajectory (JSONL) so benchdiff can gate regressions against
// BENCH_alloc.json.
var allocBenchOut = flag.String("alloc-bench-out", "", "append an allocguard bench record to this JSONL file")

// materialize collects n instructions from the representative modern
// workload into a slice, so runs replay the identical stream with a
// zero-allocation reset.
func materialize(t testing.TB, n int) []isa.Instruction {
	t.Helper()
	g := workload.MustGenerator(workload.Representative(workload.Modern))
	ins := make([]isa.Instruction, 0, n)
	for len(ins) < n {
		in, ok := g.Next()
		if !ok {
			t.Fatal("workload generator exhausted")
		}
		ins = append(ins, in)
	}
	return ins
}

func allocConfig(depth int) pipeline.Config {
	cfg := pipeline.MustDefaultConfig(depth)
	// Strip the optional observers: the guard measures the bare
	// per-cycle engine, the same shape the sweep's inner loop runs.
	cfg.Tracer = nil
	cfg.Invariants = nil
	cfg.Metrics = nil
	return cfg
}

// runAllocs measures the average heap allocations of one full
// pipeline.Run over the first n instructions of ins, and the cycle
// count of that run. The config is constructed once so its predictor,
// BTB, and cache allocations stay out of the measurement.
func runAllocs(t testing.TB, ins []isa.Instruction, depth, n int) (allocs float64, cycles uint64) {
	t.Helper()
	cfg := allocConfig(depth)
	s := trace.NewSliceStream(ins[:n])
	run := func() *pipeline.Result {
		s.Reset()
		r, err := pipeline.Run(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cycles = run().Cycles
	allocs = testing.AllocsPerRun(5, func() { run() })
	return allocs, cycles
}

// runAllocsFast is runAllocs for the skip-ahead engine: the same
// differential measurement with the instructions pre-packed and the
// optimized engine selected, the shape the sweep runner's packed path
// executes. The per-run PackedStream cursor is a constant that the
// long-minus-short subtraction cancels. A non-nil rec is attached, so
// the fused loop also runs its invariant hook; a clean run records
// nothing, so the recorder itself stays allocation-free.
func runAllocsFast(t testing.TB, packed *trace.PackedTrace, depth, n int, rec *invariant.Recorder) (allocs float64, cycles uint64) {
	t.Helper()
	cfg := allocConfig(depth)
	cfg.Engine = pipeline.EngineAuto
	cfg.Invariants = rec
	run := func() *pipeline.Result {
		r, err := pipeline.Run(cfg, packed.Slice(0, n))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cycles = run().Cycles
	allocs = testing.AllocsPerRun(5, func() { run() })
	return allocs, cycles
}

// runEpilogueSlack bounds the allocations a longer run may add over a
// shorter one under the identical config: the per-run epilogue
// (manifest stamping, fingerprint rendering) formats run-sized numbers
// and may size a fmt buffer differently, worth O(1) allocations. Any
// true per-cycle allocation would add thousands across the ~10k extra
// cycles the guard simulates, so the constant still pins the
// steady-state at zero.
const runEpilogueSlack = 4

// TestZeroAllocsPerCycle pins the steady state of the per-cycle
// simulator loop at zero heap allocations: simulating 5000 further
// instructions must cost no more than the epilogue slack over the
// 1000-instruction run, so the fixed per-run setup (rob, fifos,
// manifest) cancels out. The static twin of this guard is the
// allocfree analyzer over the //lint:hotpath bodies in
// internal/pipeline.
func TestZeroAllocsPerCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	ins := materialize(t, 6000)
	for _, depth := range []int{2, 7, 18} {
		small, smallCycles := runAllocs(t, ins, depth, 1000)
		big, bigCycles := runAllocs(t, ins, depth, 6000)
		if bigCycles <= smallCycles {
			t.Fatalf("depth %d: degenerate cycle counts %d <= %d", depth, bigCycles, smallCycles)
		}
		perCycle := (big - small) / float64(bigCycles-smallCycles)
		t.Logf("depth %d: %.0f allocs @ %d cycles vs %.0f @ %d → %.6f allocs/cycle",
			depth, small, smallCycles, big, bigCycles, perCycle)
		if big-small > runEpilogueSlack {
			t.Errorf("depth %d: %g extra allocations across %d extra cycles (%g/cycle), want ≤ %d total",
				depth, big-small, bigCycles-smallCycles, perCycle, runEpilogueSlack)
		}
	}
}

// TestZeroAllocsPerCycleSkipAhead pins the skip-ahead engine's steady
// state at zero heap allocations the same way: packed pre-decode,
// span fast-forwarding and the fused per-cycle fallback all run
// between the two measurements, so any per-cycle or per-span
// allocation shows up across the extra cycles. It runs bare and with
// an invariant recorder attached (the observed fused loop).
func TestZeroAllocsPerCycleSkipAhead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	packed, err := trace.Pack(materialize(t, 6000))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*invariant.Recorder{nil, invariant.New(nil)} {
		for _, depth := range []int{2, 7, 18} {
			small, smallCycles := runAllocsFast(t, packed, depth, 1000, rec)
			big, bigCycles := runAllocsFast(t, packed, depth, 6000, rec)
			if bigCycles <= smallCycles {
				t.Fatalf("depth %d: degenerate cycle counts %d <= %d", depth, bigCycles, smallCycles)
			}
			perCycle := (big - small) / float64(bigCycles-smallCycles)
			t.Logf("depth %d observed=%v: %.0f allocs @ %d cycles vs %.0f @ %d → %.6f allocs/cycle",
				depth, rec != nil, small, smallCycles, big, bigCycles, perCycle)
			if big-small > runEpilogueSlack {
				t.Errorf("depth %d observed=%v: %g extra allocations across %d extra cycles (%g/cycle), want ≤ %d total",
					depth, rec != nil, big-small, bigCycles-smallCycles, perCycle, runEpilogueSlack)
			}
		}
		if !rec.OK() {
			t.Errorf("clean runs recorded %d violations", rec.Count())
		}
	}
}

// packedIterationAllocs measures steady-state allocations per record
// of PackedTrace cursor iteration (Next), the record-materializing
// view of a packed trace.
func packedIterationAllocs(t testing.TB, packed *trace.PackedTrace) float64 {
	t.Helper()
	s := packed.Stream()
	var sink isa.Instruction
	allocs := testing.AllocsPerRun(1000, func() {
		if in, ok := s.Next(); ok {
			sink = in
		} else {
			s.Reset()
		}
	})
	_ = sink
	return allocs
}

// TestZeroAllocsPerPackedRecord pins packed-trace iteration at zero
// allocations per record (the dynamic twin of the //lint:hotpath
// static guard on the cursor methods).
func TestZeroAllocsPerPackedRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	packed, err := trace.Pack(materialize(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := packedIterationAllocs(t, packed); allocs != 0 {
		t.Errorf("packed iteration: %g allocs per record, want 0", allocs)
	}
}

// TestZeroAllocsPerEvaluate pins power.Evaluate (both gating modes) at
// zero allocations per evaluation.
func TestZeroAllocsPerEvaluate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	ins := materialize(t, 3000)
	s := trace.NewSliceStream(ins)
	r, err := pipeline.Run(allocConfig(10), s)
	if err != nil {
		t.Fatal(err)
	}
	m := power.DefaultModel()
	for _, gated := range []bool{false, true} {
		allocs := testing.AllocsPerRun(100, func() {
			b := m.Evaluate(r, gated)
			if b.Total() <= 0 {
				t.Fatal("degenerate breakdown")
			}
		})
		if allocs != 0 {
			t.Errorf("Evaluate(gated=%v): %g allocs per evaluation, want 0", gated, allocs)
		}
	}
}

// TestAllocBenchRecord appends the measured figures to the trajectory
// when -alloc-bench-out is set (the CI alloc-guard step), so benchdiff
// gates allocs_per_cycle and allocs_per_eval like any other metric.
func TestAllocBenchRecord(t *testing.T) {
	if *allocBenchOut == "" {
		t.Skip("no -alloc-bench-out path")
	}
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	start := time.Now()
	ins := materialize(t, 6000)
	small, smallCycles := runAllocs(t, ins, 10, 1000)
	big, bigCycles := runAllocs(t, ins, 10, 6000)
	perCycle := (big - small) / float64(bigCycles-smallCycles)

	packed, err := trace.Pack(ins)
	if err != nil {
		t.Fatal(err)
	}
	fastSmall, fastSmallCycles := runAllocsFast(t, packed, 10, 1000, nil)
	fastBig, fastBigCycles := runAllocsFast(t, packed, 10, 6000, nil)
	perCycleFast := (fastBig - fastSmall) / float64(fastBigCycles-fastSmallCycles)
	inv := invariant.New(nil)
	obsSmall, obsSmallCycles := runAllocsFast(t, packed, 10, 1000, inv)
	obsBig, obsBigCycles := runAllocsFast(t, packed, 10, 6000, inv)
	perCycleFastObserved := (obsBig - obsSmall) / float64(obsBigCycles-obsSmallCycles)
	perPacked := packedIterationAllocs(t, packed)

	s := trace.NewSliceStream(ins)
	r, err := pipeline.Run(allocConfig(10), s)
	if err != nil {
		t.Fatal(err)
	}
	m := power.DefaultModel()
	perEval := testing.AllocsPerRun(100, func() { m.Evaluate(r, true) })

	// Points stays zero: the guard measures allocation counts, not
	// throughput, and a zero PointsPerSec keeps benchdiff's relative
	// throughput gate out of allocguard-to-allocguard comparisons.
	rec := bench.NewRecord("allocguard", start)
	rec.Workload = "representative-modern-6000"
	rec.AllocsPerCycle = bench.Ptr(perCycle)
	rec.AllocsPerCycleFast = bench.Ptr(perCycleFast)
	rec.AllocsPerCycleFastObserved = bench.Ptr(perCycleFastObserved)
	rec.AllocsPerEval = bench.Ptr(perEval)
	rec.AllocsPerPackedRecord = bench.Ptr(perPacked)
	rec.Finish(start)
	if err := bench.Append(*allocBenchOut, rec); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded allocs_per_cycle=%g allocs_per_cycle_fast=%g allocs_per_cycle_fast_observed=%g "+
		"allocs_per_eval=%g allocs_per_packed_record=%g",
		perCycle, perCycleFast, perCycleFastObserved, perEval, perPacked)
}
