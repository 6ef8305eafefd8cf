package pipeline

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/trace"
)

// randomTrace builds a random but architecturally valid instruction
// sequence, exercising every class and dependency shape (including
// self-references and dense register reuse).
func randomTrace(rng *rand.Rand, n int) []isa.Instruction {
	ins := make([]isa.Instruction, 0, n)
	pc := uint64(0x1000)
	for len(ins) < n {
		var in isa.Instruction
		in.PC = pc
		pc += 4
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			in.Class = isa.RR
			in.Dst = isa.Reg(rng.Intn(isa.NumGPR))
			in.Src1 = isa.Reg(rng.Intn(isa.NumGPR))
			in.Src2 = isa.Reg(rng.Intn(isa.NumGPR))
		case 4, 5:
			in.Class = isa.Load
			in.Dst = isa.Reg(rng.Intn(isa.NumGPR))
			in.Src1 = isa.Reg(rng.Intn(isa.NumGPR)) // base may equal dst
			in.Src2 = isa.RegNone
			in.Addr = 0x1000_0000 + uint64(rng.Intn(1<<18))*8
		case 6:
			in.Class = isa.Store
			in.Dst = isa.RegNone
			in.Src1 = isa.Reg(rng.Intn(isa.NumGPR))
			in.Src2 = isa.Reg(rng.Intn(isa.NumGPR))
			in.Addr = 0x1000_0000 + uint64(rng.Intn(1<<18))*8
		case 7, 8:
			in.Class = isa.Branch
			in.Dst = isa.RegNone
			in.Src1 = isa.Reg(rng.Intn(isa.NumGPR))
			in.Src2 = isa.RegNone
			in.Target = 0x1000 + uint64(rng.Intn(1<<12))*4
			in.Taken = rng.Intn(2) == 0
		default:
			in.Class = isa.FP
			in.Dst = isa.FirstFPR + isa.Reg(rng.Intn(isa.NumFPR))
			in.Src1 = isa.FirstFPR + isa.Reg(rng.Intn(isa.NumFPR))
			in.Src2 = isa.FirstFPR + isa.Reg(rng.Intn(isa.NumFPR))
			in.FPLat = uint8(1 + rng.Intn(20))
		}
		ins = append(ins, in)
	}
	return ins
}

// randomConfig draws a random machine that passes Validate: issue,
// agen, cache-port and branch widths, queue and window capacities (the
// window is not always a power of two), the cache and fetch options
// and an optional instruction cache.
func randomConfig(rng *rand.Rand, depth int, ooo bool) Config {
	for {
		width := 1 + rng.Intn(6)
		agenW, ports, brW := 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(2)
		agenQ, execQ := 1+rng.Intn(12), 1+rng.Intn(24)
		window := 512
		if rng.Intn(2) == 0 {
			window = execQ + width + rng.Intn(64) - 2 // may undershoot: Validate rejects
		}
		nonBlock, redirect, wrong := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
		btbBubbles := rng.Intn(5)
		icacheKB, icacheFO4 := 0, 20+float64(rng.Intn(100))
		if rng.Intn(2) == 0 {
			icacheKB = 2 << rng.Intn(4)
		}
		c := MustDefaultConfig(depth)
		c.OutOfOrder = ooo
		c.Width, c.AgenWidth, c.CachePorts, c.BranchWidth = width, agenW, ports, brW
		c.AgenQCap, c.ExecQCap, c.WindowCap = agenQ, execQ, window
		c.NonBlockingCache, c.RedirectBubble, c.WrongPathActivity = nonBlock, redirect, wrong
		c.BTBMissBubbles = btbBubbles
		if icacheKB > 0 {
			c.ICache = cache.Config{SizeBytes: icacheKB << 10, LineBytes: 64, Ways: 2}
			c.ICacheMissFO4 = icacheFO4
		}
		if c.Validate() == nil {
			return c
		}
	}
}

// TestEngineInvariantsOnRandomTraces drives both execution disciplines
// over random traces on random valid machines at random depths and
// checks the engine's global invariants: every instruction retires
// exactly once, the cycle budget and the issue histogram account for
// every cycle and instruction, stall cycles never exceed total cycles,
// per-unit activity is bounded by the cycle count, and the run is
// deterministic. Each case then runs skip-ahead on, off and with a
// tracer attached, which must agree, and with observers attached (see
// observedEnginesAgree).
func TestEngineInvariantsOnRandomTraces(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}
	f := func(seed int64, depthPick uint8, oooPick bool) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := MinSimDepth + int(depthPick)%(25-MinSimDepth+1)
		n := 300 + rng.Intn(900)
		ins := randomTrace(rng, n)
		mc := randomConfig(rng, depth, oooPick)

		run := func() *Result {
			r, err := Run(mc, trace.NewSliceStream(ins))
			if err != nil {
				t.Logf("seed %d depth %d ooo %v: %v", seed, depth, oooPick, err)
				return nil
			}
			return r
		}
		r := run()
		if r == nil {
			return false
		}
		if r.Instructions != uint64(n) {
			t.Logf("retired %d of %d", r.Instructions, n)
			return false
		}
		if r.BudgetTotal() != r.Cycles {
			t.Logf("cycle budget sums to %d, run has %d cycles", r.BudgetTotal(), r.Cycles)
			return false
		}
		var histSum, weighted uint64
		for k, c := range r.IssueHist {
			histSum += c
			weighted += uint64(k) * c
		}
		if histSum != r.Cycles || weighted != r.Instructions {
			t.Logf("histogram: %d cycles %d issued", histSum, weighted)
			return false
		}
		if r.TotalStallCycles() > r.Cycles {
			t.Logf("stalls %d exceed cycles %d", r.TotalStallCycles(), r.Cycles)
			return false
		}
		for u := 0; u < NumUnits; u++ {
			if r.UnitActive[u] > r.Cycles {
				t.Logf("unit %s active beyond cycles", Unit(u))
				return false
			}
		}
		if r.MaxWindowOccupied > mc.WindowCap {
			t.Logf("window overflow")
			return false
		}
		// Determinism.
		r2 := run()
		if r2 == nil || r2.Cycles != r.Cycles || r2.Hazards != r.Hazards {
			t.Logf("non-deterministic")
			return false
		}
		return enginesAgree(t, ins, mc) && observedEnginesAgree(t, ins, mc)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// enginesAgree runs ins with skip-ahead on (packed input), off, and on
// with a tracer attached (which disarms it), and reports whether all
// three produce the same ResultData.
func enginesAgree(t *testing.T, ins []isa.Instruction, cfg Config) bool {
	t.Helper()
	packed, err := trace.Pack(ins)
	if err != nil {
		t.Logf("pack: %v", err)
		return false
	}
	run := func(engine EngineKind, traced bool, src trace.Stream) (ResultData, bool) {
		mc := cfg
		mc.Engine = engine
		if traced {
			mc.Tracer = NewTracer(1 << 10)
		}
		r, err := Run(mc, src)
		if err != nil {
			t.Logf("engine %d traced %v: %v", engine, traced, err)
			return ResultData{}, false
		}
		return r.Data(), true
	}
	ref, ok := run(EnginePerCycle, false, trace.NewSliceStream(ins))
	if !ok {
		return false
	}
	for name, got := range map[string]func() (ResultData, bool){
		"skip-on": func() (ResultData, bool) { return run(EngineAuto, false, packed.Stream()) },
		"tracer":  func() (ResultData, bool) { return run(EngineAuto, true, trace.NewSliceStream(ins)) },
	} {
		d, ok := got()
		if !ok {
			return false
		}
		if !reflect.DeepEqual(d, ref) {
			t.Logf("%s run differs from skip-off\nref: %+v\ngot: %+v", name, ref, d)
			return false
		}
	}
	return true
}

// observedEnginesAgree runs ins with an invariant recorder attached and
// activity sampling every 7 and every 64 cycles, on the per-cycle
// reference and on the auto engine fed both a packed and a plain
// stream. It reports whether every auto run matches the reference in
// ResultData (samples included) and violation count.
func observedEnginesAgree(t *testing.T, ins []isa.Instruction, cfg Config) bool {
	t.Helper()
	packed, err := trace.Pack(ins)
	if err != nil {
		t.Logf("pack: %v", err)
		return false
	}
	for _, iv := range []uint64{7, 64} {
		run := func(engine EngineKind, src trace.Stream) (ResultData, uint64, bool) {
			rec := invariant.New(nil)
			mc := cfg
			mc.Engine = engine
			mc.Invariants = rec
			mc.SampleInterval = iv
			r, err := Run(mc, src)
			if err != nil {
				t.Logf("interval %d: %v", iv, err)
				return ResultData{}, 0, false
			}
			return r.Data(), rec.Count(), true
		}
		ref, refViolations, ok := run(EnginePerCycle, trace.NewSliceStream(ins))
		if !ok {
			return false
		}
		if len(ref.Samples) == 0 {
			t.Logf("interval %d: no samples over %d cycles", iv, ref.Cycles)
			return false
		}
		if refViolations != 0 {
			t.Logf("interval %d: clean run recorded %d violations", iv, refViolations)
			return false
		}
		for name, src := range map[string]trace.Stream{
			"packed": packed.Stream(),
			"plain":  trace.NewSliceStream(ins),
		} {
			got, violations, ok := run(EngineAuto, src)
			if !ok {
				return false
			}
			if violations != refViolations || !reflect.DeepEqual(got, ref) {
				t.Logf("interval %d, %s stream: observed auto engine differs from per-cycle "+
					"(violations %d vs %d)\nref: %+v\ngot: %+v", iv, name,
					violations, refViolations, ref, got)
				return false
			}
		}
	}
	return true
}

// TestEngineTimeSanityOnRandomTraces bounds execution time: a trace
// can never finish faster than width allows nor absurdly slower than
// its serial latency sum.
func TestEngineTimeSanityOnRandomTraces(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(23))}
	f := func(seed int64, oooPick bool) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 600
		ins := randomTrace(rng, n)
		mc := MustDefaultConfig(12)
		mc.OutOfOrder = oooPick
		r, err := Run(mc, trace.NewSliceStream(ins))
		if err != nil {
			return false
		}
		if r.Cycles < uint64(n)/uint64(mc.Width) {
			t.Logf("faster than issue width allows: %d cycles", r.Cycles)
			return false
		}
		// Loose upper bound: every instruction fully serialized at
		// worst-case latency (memory ≈ 90 cycles at depth 12).
		if r.Cycles > uint64(n)*200 {
			t.Logf("implausibly slow: %d cycles for %d instructions", r.Cycles, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestOOONeverSlowerOnRandomTraces: across random traces, the renamed
// out-of-order machine is never meaningfully slower than the in-order
// one (same fetch, queues and latencies; strictly more issue freedom).
func TestOOONeverSlowerOnRandomTraces(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(29))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ins := randomTrace(rng, 500)
		run := func(ooo bool) uint64 {
			mc := MustDefaultConfig(10)
			mc.OutOfOrder = ooo
			r, err := Run(mc, trace.NewSliceStream(ins))
			if err != nil {
				return 0
			}
			return r.Cycles
		}
		in, ooo := run(false), run(true)
		if in == 0 || ooo == 0 {
			return false
		}
		// Allow a small slack: the extra rename stage lengthens the
		// refill path, which can cost a few cycles on mispredict-heavy
		// random code.
		if float64(ooo) > float64(in)*1.10+20 {
			t.Logf("seed %d: OOO %d cycles vs in-order %d", seed, ooo, in)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
