package power_test

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

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
	return cfg
}

// runAllocs measures the average heap allocations of one full
// pipeline.Run over the first n instructions of ins, and the cycle
// count of that run. Each run builds its predictor, BTB and caches
// afresh: a per-run constant that the long-minus-short subtraction
// cancels.
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
// true per-cycle allocation would add thousands across the ≥ 40k extra
// cycles the guard simulates, so the constant still pins the
// steady-state at zero.
const runEpilogueSlack = 4

// maxAllocsPerCycle bounds the extra allocations per extra simulated
// cycle. The total slack alone would let a rare allocation through
// (one every few thousand cycles adds only two or three over the run);
// the per-cycle bound catches anything more frequent than one per
// 10 000 cycles.
const maxAllocsPerCycle = 1e-4

// minExtraCycles is the fewest extra cycles the long run must simulate
// over the short one for the two bounds to agree: across fewer, the
// runEpilogueSlack epilogue allocations the total bound forgives would
// breach maxAllocsPerCycle.
const minExtraCycles = runEpilogueSlack / maxAllocsPerCycle

// The guard's short and long runs, in instructions. allocLongRun is
// sized so that every allocDepth simulates at least minExtraCycles
// more cycles in the long run (the shallowest depth retires fastest:
// depth 2 runs ≈ 0.73 cycles per instruction); checkExtraCycles fails
// the guard if it does not.
const (
	allocShortRun = 1000
	allocLongRun  = 64000
)

// allocDepths spans the shallow, reference (10) and deep ends of the
// studied range.
var allocDepths = []int{2, 7, 10, 18}

// checkExtraCycles fails the guard when the long run adds fewer than
// minExtraCycles cycles over the short one.
func checkExtraCycles(t *testing.T, depth int, smallCycles, bigCycles uint64) {
	t.Helper()
	if bigCycles < smallCycles+minExtraCycles {
		t.Fatalf("depth %d: long run adds %d cycles over the short one (%d → %d), want ≥ %g: lengthen allocLongRun",
			depth, int64(bigCycles)-int64(smallCycles), smallCycles, bigCycles, float64(minExtraCycles))
	}
}

// TestZeroAllocsPerCycle pins the steady state of the per-cycle
// simulator loop at zero heap allocations: the allocLongRun run must
// cost no more than the epilogue slack over the allocShortRun run, so
// the fixed per-run setup (models, window, pipes, manifest) cancels
// out. The static twin of this guard is the
// allocfree analyzer over the //lint:hotpath bodies in
// internal/pipeline.
func TestZeroAllocsPerCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	ins := materialize(t, allocLongRun)
	for _, depth := range allocDepths {
		small, smallCycles := runAllocs(t, ins, depth, allocShortRun)
		big, bigCycles := runAllocs(t, ins, depth, allocLongRun)
		checkExtraCycles(t, depth, smallCycles, bigCycles)
		perCycle := (big - small) / float64(bigCycles-smallCycles)
		t.Logf("depth %d: %.0f allocs @ %d cycles vs %.0f @ %d → %.6f allocs/cycle",
			depth, small, smallCycles, big, bigCycles, perCycle)
		if big-small > runEpilogueSlack || perCycle > maxAllocsPerCycle {
			t.Errorf("depth %d: %g extra allocations across %d extra cycles (%g/cycle), want ≤ %d total and ≤ %g/cycle",
				depth, big-small, bigCycles-smallCycles, perCycle, runEpilogueSlack, maxAllocsPerCycle)
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
	packed, err := trace.Pack(materialize(t, allocLongRun))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*invariant.Recorder{nil, invariant.New(nil)} {
		for _, depth := range allocDepths {
			small, smallCycles := runAllocsFast(t, packed, depth, allocShortRun, rec)
			big, bigCycles := runAllocsFast(t, packed, depth, allocLongRun, rec)
			checkExtraCycles(t, depth, smallCycles, bigCycles)
			perCycle := (big - small) / float64(bigCycles-smallCycles)
			t.Logf("depth %d observed=%v: %.0f allocs @ %d cycles vs %.0f @ %d → %.6f allocs/cycle",
				depth, rec != nil, small, smallCycles, big, bigCycles, perCycle)
			if big-small > runEpilogueSlack || perCycle > maxAllocsPerCycle {
				t.Errorf("depth %d observed=%v: %g extra allocations across %d extra cycles (%g/cycle), want ≤ %d total and ≤ %g/cycle",
					depth, rec != nil, big-small, bigCycles-smallCycles, perCycle, runEpilogueSlack, maxAllocsPerCycle)
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
