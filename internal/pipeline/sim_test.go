package pipeline

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// idealConfig returns a machine with perfect prediction and a perfect
// cache, to isolate the mechanism under test.
func idealConfig(depth int) Config {
	c := MustDefaultConfig(depth)
	c.Predictor = branch.PredictorConfig{}
	c.Hierarchy = cache.HierarchyConfig{}
	c.RedirectBubble = false
	return c
}

func rrIndependent(n int) []isa.Instruction {
	ins := make([]isa.Instruction, n)
	for i := range ins {
		ins[i] = isa.Instruction{
			PC:    uint64(0x1000 + 4*i),
			Class: isa.RR,
			Dst:   isa.Reg(i % isa.NumGPR),
			Src1:  isa.RegNone,
			Src2:  isa.RegNone,
		}
	}
	return ins
}

func mustRun(t *testing.T, cfg Config, ins []isa.Instruction) *Result {
	t.Helper()
	r, err := Run(cfg, trace.NewSliceStream(ins))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIndependentRRThroughput(t *testing.T) {
	// With no hazards, a 4-wide machine sustains IPC ≈ 4.
	const n = 4000
	r := mustRun(t, idealConfig(10), rrIndependent(n))
	if r.Instructions != n {
		t.Fatalf("retired %d of %d", r.Instructions, n)
	}
	if ipc := r.IPC(); ipc < 3.7 {
		t.Errorf("IPC = %.2f, want ≈ 4", ipc)
	}
	if a := r.Alpha(); a < 3.7 || a > 4.0 {
		t.Errorf("alpha = %.2f, want ≈ 4", a)
	}
	if r.TotalStallCycles() > n/20 {
		t.Errorf("stalls = %d on hazard-free code", r.TotalStallCycles())
	}
}

func TestDependencyChainLatency(t *testing.T) {
	// A strict RR dependency chain issues one instruction per cycle at
	// any depth: simple-ALU forwarding does not scale with the E-pipe
	// (see sim.go's intLat).
	const n = 2000
	ins := make([]isa.Instruction, n)
	for i := range ins {
		ins[i] = isa.Instruction{
			PC:    uint64(0x1000 + 4*i),
			Class: isa.RR,
			Dst:   isa.Reg(1),
			Src1:  isa.Reg(1),
			Src2:  isa.RegNone,
		}
	}
	for _, depth := range []int{5, 10, 24} {
		r := mustRun(t, idealConfig(depth), ins)
		if ipc := r.IPC(); ipc < 0.93 || ipc > 1.01 {
			t.Errorf("depth %d: chain IPC = %.3f, want ≈ 1", depth, ipc)
		}
	}
}

func TestLoadUseCostGrowsWithDepth(t *testing.T) {
	// A load-use chain pays the address-generation/cache pipeline per
	// iteration, so its cycle count grows with depth.
	var ins []isa.Instruction
	for i := 0; i < 500; i++ {
		ins = append(ins, isa.Instruction{
			PC: uint64(0x1000 + 8*i), Class: isa.Load,
			Dst: 1, Src1: isa.RegNone, Src2: isa.RegNone,
			Addr: 0x1000_0000,
		})
		ins = append(ins, isa.Instruction{
			PC: uint64(0x1004 + 8*i), Class: isa.RR,
			Dst: 2, Src1: 1, Src2: isa.RegNone,
		})
	}
	shallow := mustRun(t, idealConfig(4), ins)
	deep := mustRun(t, idealConfig(24), ins)
	if deep.Cycles < shallow.Cycles*2 {
		t.Errorf("load-use cycles: depth 24 %d < 2× depth 4 %d", deep.Cycles, shallow.Cycles)
	}
	if deep.StallCycles[StallAgen]+deep.StallCycles[StallMemory]+deep.StallCycles[StallDependency] == 0 {
		t.Error("no load-use stalls recorded")
	}
}

func TestMispredictPenaltyScalesWithDepth(t *testing.T) {
	// All branches mispredicted (static predicts taken; outcomes are
	// not-taken): the refill penalty must grow with pipeline depth.
	mk := func() []isa.Instruction {
		var ins []isa.Instruction
		for b := 0; b < 200; b++ {
			ins = append(ins, isa.Instruction{
				PC: uint64(0x2000 + 64*b), Class: isa.Branch,
				Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
				Target: 0x100, Taken: false,
			})
			for k := 0; k < 4; k++ {
				ins = append(ins, isa.Instruction{
					PC: uint64(0x2000 + 64*b + 4 + 4*k), Class: isa.RR,
					Dst: isa.Reg(k), Src1: isa.RegNone, Src2: isa.RegNone,
				})
			}
		}
		return ins
	}
	run := func(depth int) *Result {
		cfg := idealConfig(depth)
		cfg.Predictor = branch.PredictorConfig{Kind: branch.KindStatic}
		return mustRun(t, cfg, mk())
	}
	shallow := run(5)
	deep := run(25)
	if shallow.Hazards.BranchMispredicts != 200 || deep.Hazards.BranchMispredicts != 200 {
		t.Fatalf("mispredicts: %d / %d, want 200",
			shallow.Hazards.BranchMispredicts, deep.Hazards.BranchMispredicts)
	}
	// Per-mispredict cycle cost = total branch stall cycles / events.
	costS := float64(shallow.StallCycles[StallBranch]) / 200
	costD := float64(deep.StallCycles[StallBranch]) / 200
	if costD < costS*2.5 {
		t.Errorf("mispredict cost %0.1f → %0.1f cycles from depth 5 → 25; want ≥ 2.5×",
			costS, costD)
	}
}

func TestCacheMissCost(t *testing.T) {
	// Loads striding far apart (always missing) must run much slower
	// than loads hitting one line, and the miss latency in cycles
	// must match the configured FO4 latency conversion.
	mkLoads := func(stride uint64) []isa.Instruction {
		ins := make([]isa.Instruction, 600)
		for i := range ins {
			ins[i] = isa.Instruction{
				PC: uint64(0x1000 + 4*i), Class: isa.Load,
				Dst: isa.Reg(i % 8), Src1: isa.RegNone, Src2: isa.RegNone,
				Addr: 0x1000_0000 + uint64(i)*stride,
			}
		}
		return ins
	}
	cfg := idealConfig(10)
	cfg.Hierarchy = cache.DefaultHierarchy()
	hits := mustRun(t, cfg, mkLoads(0))
	cfg = idealConfig(10)
	cfg.Hierarchy = cache.DefaultHierarchy()
	misses := mustRun(t, cfg, mkLoads(1<<20)) // new L2-missing line every load
	if hits.L1Misses > 1 {
		t.Errorf("same-line loads missed %d times", hits.L1Misses)
	}
	if misses.Hazards.LoadMemAccesses < 590 {
		t.Errorf("memory accesses = %d, want ≈ 600", misses.Hazards.LoadMemAccesses)
	}
	if misses.Cycles < hits.Cycles*10 {
		t.Errorf("missing loads %d cycles vs hitting %d — memory latency not applied",
			misses.Cycles, hits.Cycles)
	}
}

func TestMissTimeCostShrinksWithDepth(t *testing.T) {
	// A memory miss costs fixed FO4 *time*, so its cycle cost grows
	// with depth but its time cost is ≈ constant — the mechanism that
	// keeps the simulator's deep-pipeline performance above the
	// analytic model's linear-hazard prediction.
	mk := func() []isa.Instruction {
		ins := make([]isa.Instruction, 400)
		for i := range ins {
			ins[i] = isa.Instruction{
				PC: uint64(0x1000 + 4*i), Class: isa.Load,
				Dst: isa.Reg(i % 8), Src1: isa.RegNone, Src2: isa.RegNone,
				Addr: 0x1000_0000 + uint64(i)<<20,
			}
		}
		return ins
	}
	run := func(depth int) *Result {
		cfg := idealConfig(depth)
		cfg.Hierarchy = cache.DefaultHierarchy()
		return mustRun(t, cfg, mk())
	}
	shallow := run(5)
	deep := run(25)
	tS := shallow.TimeFO4()
	tD := deep.TimeFO4()
	if tD > tS*1.5 {
		t.Errorf("miss-bound time grew %0.0f → %0.0f FO4 with depth; should be ≈ flat", tS, tD)
	}
}

func TestFPSerialization(t *testing.T) {
	// Unpipelined FP: N ops of latency L take ≈ N·L cycles.
	const n, lat = 300, 8
	ins := make([]isa.Instruction, n)
	for i := range ins {
		ins[i] = isa.Instruction{
			PC: uint64(0x1000 + 4*i), Class: isa.FP,
			Dst:  isa.FirstFPR + isa.Reg(i%isa.NumFPR),
			Src1: isa.RegNone, Src2: isa.RegNone, FPLat: lat,
		}
	}
	r := mustRun(t, idealConfig(10), ins)
	if r.Cycles < n*lat || r.Cycles > n*lat+200 {
		t.Errorf("FP cycles = %d, want ≈ %d", r.Cycles, n*lat)
	}
	if r.Hazards.FPEpisodes == 0 {
		t.Error("no FP structural episodes recorded")
	}
	if a := r.Alpha(); a > 1.01 {
		t.Errorf("alpha = %.2f for serialized FP, want ≤ 1", a)
	}
}

func TestConservationAndHistogram(t *testing.T) {
	prof := workload.Representative(workload.Modern)
	g := workload.MustGenerator(prof)
	cfg := MustDefaultConfig(12)
	r, err := Run(cfg, trace.NewLimitStream(g, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != 5000 {
		t.Fatalf("retired %d of 5000", r.Instructions)
	}
	var histSum uint64
	var weighted uint64
	for k, c := range r.IssueHist {
		histSum += c
		weighted += uint64(k) * c
	}
	if histSum != r.Cycles {
		t.Errorf("issue histogram covers %d of %d cycles", histSum, r.Cycles)
	}
	if weighted != r.Instructions {
		t.Errorf("issued-weighted histogram = %d, want %d", weighted, r.Instructions)
	}
	if r.Alpha() > float64(cfg.Width) {
		t.Errorf("alpha %.2f exceeds width", r.Alpha())
	}
	if r.MaxWindowOccupied > cfg.WindowCap {
		t.Errorf("window occupancy %d exceeds cap", r.MaxWindowOccupied)
	}
	if r.Branches == 0 || r.LoadCount == 0 || r.StoreCount == 0 {
		t.Error("expected mixed traffic")
	}
	if len(r.String()) == 0 {
		t.Error("empty report")
	}
}

func TestDeterminism(t *testing.T) {
	prof := workload.Representative(workload.SPECInt)
	run := func() *Result {
		g := workload.MustGenerator(prof)
		r, err := Run(MustDefaultConfig(14), trace.NewLimitStream(g, 4000))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Hazards != b.Hazards || a.UnitActive != b.UnitActive {
		t.Error("simulation is not deterministic")
	}
}

func TestUnitActivityBounds(t *testing.T) {
	prof := workload.Representative(workload.Legacy)
	g := workload.MustGenerator(prof)
	r, err := Run(MustDefaultConfig(10), trace.NewLimitStream(g, 4000))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < NumUnits; u++ {
		if r.UnitActive[u] > r.Cycles {
			t.Errorf("%s active %d of %d cycles", Unit(u), r.UnitActive[u], r.Cycles)
		}
	}
	// The major units must have seen activity.
	for _, u := range []Unit{UnitFetch, UnitDecode, UnitCache, UnitExec, UnitRetire} {
		if r.UnitActive[u] == 0 {
			t.Errorf("%s never active", u)
		}
	}
	// Clock gating premise: no unit is active every single cycle.
	idle := false
	for u := 0; u < NumUnits; u++ {
		if r.UnitActive[u] < r.Cycles {
			idle = true
		}
	}
	if !idle {
		t.Error("all units active all cycles — gating would be a no-op")
	}
}

// TestMaxCyclesAbort checks the MaxCycles abort on every way of
// running the cycle body: skip-ahead on (packed and plain input), off,
// out-of-order and tracer-attached. Each returns ErrMaxCycles wrapped
// with the first cycle past the limit.
func TestMaxCyclesAbort(t *testing.T) {
	ins := rrIndependent(4000)
	packed, err := trace.Pack(ins)
	if err != nil {
		t.Fatal(err)
	}
	legs := map[string]struct {
		mutate func(*Config)
		src    trace.Stream
	}{
		"auto":       {func(*Config) {}, packed.Stream()},
		"auto-plain": {func(*Config) {}, trace.NewSliceStream(ins)},
		"per-cycle":  {func(c *Config) { c.Engine = EnginePerCycle }, trace.NewSliceStream(ins)},
		"ooo":        {func(c *Config) { c.OutOfOrder = true }, trace.NewSliceStream(ins)},
		"tracer":     {func(c *Config) { c.Tracer = NewTracer(0) }, trace.NewSliceStream(ins)},
	}
	for name, leg := range legs {
		cfg := idealConfig(10)
		cfg.MaxCycles = 10
		leg.mutate(&cfg)
		_, err := Run(cfg, leg.src)
		if !errors.Is(err, ErrMaxCycles) {
			t.Errorf("%s: err = %v, want ErrMaxCycles", name, err)
			continue
		}
		if !strings.HasSuffix(err.Error(), "at cycle 11") {
			t.Errorf("%s: err = %q, want the abort cycle 11", name, err)
		}
	}
}

// TestWatchdogFiresOnPlantedDeadlock pins the execution-queue count at
// its capacity, so decode exit never moves and nothing can issue: the
// machine fetches until the decode pipe fills and then makes no
// further progress. The forward-progress watchdog must report
// ErrNoProgress on exactly the cycle watchdogCycles past the last
// progress, with skip-ahead on (which spans the frozen cycles in
// closed form) and off.
func TestWatchdogFiresOnPlantedDeadlock(t *testing.T) {
	prof := workload.Representative(workload.SPECInt)
	packed, err := trace.PackStream(workload.MustGenerator(prof), 2000)
	if err != nil {
		t.Fatal(err)
	}
	abort := map[EngineKind]uint64{}
	for _, engine := range []EngineKind{EngineAuto, EnginePerCycle} {
		cfg := MustDefaultConfig(10)
		cfg.Engine = engine
		m, err := NewModels(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps := packed.Stream()
		s := newSim(cfg, m.Replay(ps), ps)
		s.inExecQ = cfg.ExecQCap
		_, err = s.run()
		if !errors.Is(err, ErrNoProgress) {
			t.Fatalf("engine %d: err = %v, want ErrNoProgress", engine, err)
		}
		if s.lastProgress == 0 || s.retired != 0 {
			t.Fatalf("engine %d: plant did not freeze the machine (last progress %d, retired %d)",
				engine, s.lastProgress, s.retired)
		}
		if want := s.lastProgress + watchdogCycles + 1; s.cycle != want {
			t.Errorf("engine %d: watchdog fired at cycle %d, want %d", engine, s.cycle, want)
		}
		if !strings.HasSuffix(err.Error(), fmt.Sprintf("at cycle %d", s.cycle)) {
			t.Errorf("engine %d: err = %q does not name abort cycle %d", engine, err, s.cycle)
		}
		abort[engine] = s.cycle
	}
	if abort[EngineAuto] != abort[EnginePerCycle] {
		t.Errorf("watchdog cycle: skip-ahead %d, per-cycle %d", abort[EngineAuto], abort[EnginePerCycle])
	}
}

func TestRunValidatesConfig(t *testing.T) {
	cfg := idealConfig(10)
	cfg.Width = 0
	if _, err := Run(cfg, trace.NewSliceStream(nil)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestEmptyTrace(t *testing.T) {
	r := mustRun(t, idealConfig(10), nil)
	if r.Instructions != 0 {
		t.Errorf("retired %d from empty trace", r.Instructions)
	}
}

func TestShallowDepthsRun(t *testing.T) {
	// Merged-unit plans (depths 2 and 3) must execute correctly.
	prof := workload.Representative(workload.SPECInt)
	for _, d := range []int{2, 3, 4} {
		g := workload.MustGenerator(prof)
		r, err := Run(MustDefaultConfig(d), trace.NewLimitStream(g, 3000))
		if err != nil {
			t.Fatalf("depth %d: %v", d, err)
		}
		if r.Instructions != 3000 {
			t.Fatalf("depth %d retired %d", d, r.Instructions)
		}
		if r.IPC() <= 0 {
			t.Fatalf("depth %d IPC = %g", d, r.IPC())
		}
	}
}

func TestPerformanceCurveShape(t *testing.T) {
	// Time per instruction (in FO4) must be high at depth 2 (few
	// stages, slow clock), drop to a minimum, and rise or flatten by
	// depth 25 — the paper's performance-optimum shape.
	prof := workload.Representative(workload.Modern)
	tau := map[int]float64{}
	for _, d := range []int{2, 10, 18, 25} {
		g := workload.MustGenerator(prof)
		r, err := Run(MustDefaultConfig(d), trace.NewLimitStream(g, 8000))
		if err != nil {
			t.Fatal(err)
		}
		tau[d] = r.TimePerInstructionFO4()
	}
	if !(tau[2] > tau[10]) {
		t.Errorf("τ(2)=%.1f should exceed τ(10)=%.1f", tau[2], tau[10])
	}
	if !(tau[2] > tau[18]) {
		t.Errorf("τ(2)=%.1f should exceed τ(18)=%.1f", tau[2], tau[18])
	}
}

func TestNonBlockingCacheOverlapsMisses(t *testing.T) {
	// Independent missing loads back-to-back: a blocking cache
	// serializes their memory latencies; MSHRs overlap them.
	mk := func() []isa.Instruction {
		ins := make([]isa.Instruction, 40)
		for i := range ins {
			ins[i] = isa.Instruction{
				PC: uint64(0x1000 + 4*i), Class: isa.Load,
				Dst: isa.Reg(i % 8), Src1: isa.RegNone, Src2: isa.RegNone,
				Addr: 0x4000_0000 + uint64(i)<<21,
			}
		}
		return ins
	}
	run := func(nonBlocking bool) *Result {
		cfg := idealConfig(10)
		cfg.Hierarchy = cache.DefaultHierarchy()
		cfg.NonBlockingCache = nonBlocking
		return mustRun(t, cfg, mk())
	}
	blocking := run(false)
	mshr := run(true)
	if mshr.Cycles*2 > blocking.Cycles {
		t.Errorf("MSHRs %d cycles not well below blocking %d", mshr.Cycles, blocking.Cycles)
	}
}

func TestICacheMissesStallFetch(t *testing.T) {
	// A code footprint far beyond the I-cache forces line misses and
	// slows the run; the same trace with a perfect front end is fast.
	mk := func() []isa.Instruction {
		ins := make([]isa.Instruction, 2000)
		for i := range ins {
			ins[i] = isa.Instruction{
				// New line every instruction, huge footprint.
				PC:    uint64(0x10000 + 64*i),
				Class: isa.RR, Dst: isa.Reg(i % 8),
				Src1: isa.RegNone, Src2: isa.RegNone,
			}
		}
		return ins
	}
	perfect := mustRun(t, idealConfig(10), mk())
	cfg := idealConfig(10)
	cfg.ICache = cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2}
	cfg.ICacheMissFO4 = 90
	missy := mustRun(t, cfg, mk())
	if missy.ICacheMisses < 1900 {
		t.Fatalf("I-cache misses = %d, want ≈ 2000", missy.ICacheMisses)
	}
	if missy.Cycles < perfect.Cycles*3 {
		t.Errorf("I-cache misses cost too little: %d vs %d cycles", missy.Cycles, perfect.Cycles)
	}
	// Hot code loops entirely within the I-cache after warmup.
	small := mk()[:100]
	var looped []isa.Instruction
	for pass := 0; pass < 10; pass++ {
		looped = append(looped, small...)
	}
	cfg2 := idealConfig(10)
	cfg2.ICache = cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2}
	cfg2.ICacheMissFO4 = 90
	hot := mustRun(t, cfg2, looped)
	if hot.ICacheMisses > 110 {
		t.Errorf("hot loop missed %d times, want ≈ 100 cold misses", hot.ICacheMisses)
	}
}

func TestICacheConfigValidation(t *testing.T) {
	cfg := idealConfig(10)
	cfg.ICache = cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2}
	cfg.ICacheMissFO4 = 0
	if err := cfg.Validate(); err == nil {
		t.Error("I-cache without miss latency accepted")
	}
}

func TestBTBMissesCostFetchBubbles(t *testing.T) {
	// Many distinct correctly-predicted taken branches: with a tiny
	// BTB every redirect waits for decode; with a perfect front end
	// (nil BTB) only the redirect bubble applies.
	mk := func() []isa.Instruction {
		var ins []isa.Instruction
		for b := 0; b < 300; b++ {
			ins = append(ins, isa.Instruction{
				PC: uint64(0x2000 + 148*b), Class: isa.Branch,
				Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
				Target: uint64(0x3000 + 148*b), Taken: true,
			})
			ins = append(ins, isa.Instruction{
				PC: uint64(0x3000 + 148*b), Class: isa.RR,
				Dst: 1, Src1: isa.RegNone, Src2: isa.RegNone,
			})
		}
		return ins
	}
	machine := func(btb branch.BTBConfig) Config {
		cfg := idealConfig(10)
		cfg.Predictor = branch.PredictorConfig{Kind: branch.KindStatic} // always taken: all correct here
		cfg.RedirectBubble = true
		cfg.BTB = btb
		cfg.BTBMissBubbles = 2
		return cfg
	}
	perfect := mustRun(t, machine(branch.BTBConfig{}), mk())
	tiny := mustRun(t, machine(branch.BTBConfig{Entries: 8, Ways: 2}), mk())
	if perfect.BTBMisses != 0 {
		t.Fatalf("nil BTB recorded %d misses", perfect.BTBMisses)
	}
	if tiny.BTBMisses < 250 {
		t.Fatalf("tiny BTB misses = %d, want ≈ 300", tiny.BTBMisses)
	}
	if tiny.Cycles < perfect.Cycles+400 {
		t.Errorf("BTB misses cost too little: %d vs %d cycles", tiny.Cycles, perfect.Cycles)
	}
	// A warm, large BTB converges toward the perfect front end on
	// repeated code.
	big := machine(branch.BTBConfig{Entries: 1024, Ways: 4})
	models, err := NewModels(&big)
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunWith(big, models, trace.NewSliceStream(mk()))
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunWith(big, models, trace.NewSliceStream(mk())) // BTB retained across runs
	if err != nil {
		t.Fatal(err)
	}
	if second.BTBMisses > first.BTBMisses/10 {
		t.Errorf("warm BTB still missing: %d then %d", first.BTBMisses, second.BTBMisses)
	}
}

func TestWrongPathActivityRaisesFrontEndEnergy(t *testing.T) {
	// All-mispredicted branches: with wrong-path modeling the fetch
	// and decode units charge through recovery windows.
	mk := func() []isa.Instruction {
		var ins []isa.Instruction
		for b := 0; b < 150; b++ {
			ins = append(ins, isa.Instruction{
				PC: uint64(0x2000 + 148*b), Class: isa.Branch,
				Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
				Target: 0x100, Taken: false,
			})
			ins = append(ins, isa.Instruction{
				PC: uint64(0x2004 + 148*b), Class: isa.RR,
				Dst: 1, Src1: isa.RegNone, Src2: isa.RegNone,
			})
		}
		return ins
	}
	run := func(wrongPath bool) *Result {
		cfg := idealConfig(16)
		cfg.Predictor = branch.PredictorConfig{Kind: branch.KindStatic}
		cfg.WrongPathActivity = wrongPath
		return mustRun(t, cfg, mk())
	}
	off := run(false)
	on := run(true)
	if on.Cycles != off.Cycles {
		t.Fatalf("wrong-path modeling changed timing: %d vs %d", on.Cycles, off.Cycles)
	}
	if on.UnitOps[UnitFetch] <= off.UnitOps[UnitFetch] {
		t.Errorf("fetch ops %d not above baseline %d", on.UnitOps[UnitFetch], off.UnitOps[UnitFetch])
	}
	if on.UnitActive[UnitDecode] <= off.UnitActive[UnitDecode] {
		t.Errorf("decode activity %d not above baseline %d",
			on.UnitActive[UnitDecode], off.UnitActive[UnitDecode])
	}
}

func TestUtilizationReport(t *testing.T) {
	prof := workload.Representative(workload.SPECInt)
	g := workload.MustGenerator(prof)
	r, err := Run(MustDefaultConfig(10), trace.NewLimitStream(g, 3000))
	if err != nil {
		t.Fatal(err)
	}
	rep := r.UtilizationReport()
	for _, want := range []string{"decode", "cache", "exec", "retire", "util%"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if strings.Contains(rep, "NaN") {
		t.Error("NaN in report")
	}
}
