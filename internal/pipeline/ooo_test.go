package pipeline

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

func oooConfig(depth int) Config {
	c := MustDefaultConfig(depth)
	c.OutOfOrder = true
	return c
}

func runWorkload(t *testing.T, cfg Config, cls workload.Class, n int) *Result {
	t.Helper()
	g := workload.MustGenerator(workload.Representative(cls))
	r, err := Run(cfg, trace.NewLimitStream(g, n))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOOOConservation(t *testing.T) {
	r := runWorkload(t, oooConfig(12), workload.Modern, 6000)
	if r.Instructions != 6000 {
		t.Fatalf("retired %d of 6000", r.Instructions)
	}
	var histSum, weighted uint64
	for k, c := range r.IssueHist {
		histSum += c
		weighted += uint64(k) * c
	}
	if histSum != r.Cycles || weighted != r.Instructions {
		t.Errorf("issue histogram inconsistent: %d cycles / %d issued", histSum, weighted)
	}
	if r.UnitOps[UnitRename] != r.Instructions {
		t.Errorf("rename ops %d ≠ instructions %d", r.UnitOps[UnitRename], r.Instructions)
	}
}

func TestOOODeterminism(t *testing.T) {
	a := runWorkload(t, oooConfig(14), workload.SPECInt, 4000)
	b := runWorkload(t, oooConfig(14), workload.SPECInt, 4000)
	if a.Cycles != b.Cycles || a.Hazards != b.Hazards {
		t.Error("out-of-order simulation not deterministic")
	}
}

func TestOOOBeatsInOrderOnStallHeavyCode(t *testing.T) {
	// Out-of-order issue hides load-use and dependency stalls that
	// head-block the in-order queue.
	for _, cls := range []workload.Class{workload.Legacy, workload.Modern, workload.SPECInt} {
		inorder := runWorkload(t, MustDefaultConfig(14), cls, 6000)
		ooo := runWorkload(t, oooConfig(14), cls, 6000)
		if ooo.IPC() < inorder.IPC() {
			t.Errorf("%s: OOO IPC %.3f below in-order %.3f", cls, ooo.IPC(), inorder.IPC())
		}
	}
}

func TestOOOIssuesAroundBlockedHead(t *testing.T) {
	// Back-to-back missing loads with interleaved consumers. Both
	// machines decouple address generation from issue (base producers
	// are captured at decode exit), so the misses overlap either way;
	// out-of-order issue must never be slower, and its broader wins
	// on real code are covered by TestOOOBeatsInOrderOnStallHeavyCode.
	var ins []isa.Instruction
	for i := 0; i < 12; i++ {
		ins = append(ins,
			isa.Instruction{PC: uint64(0x1000 + 16*i), Class: isa.Load,
				Dst: 1, Src1: isa.RegNone, Src2: isa.RegNone,
				Addr: 0x4000_0000 + uint64(i)<<21},
			isa.Instruction{PC: uint64(0x1008 + 16*i), Class: isa.RR,
				Dst: 2, Src1: 1, Src2: isa.RegNone},
		)
	}
	run := func(ooo bool) *Result {
		cfg := idealConfig(10)
		cfg.Hierarchy = MustDefaultConfig(10).Hierarchy
		cfg.OutOfOrder = ooo
		return mustRun(t, cfg, ins)
	}
	inorder := run(false)
	ooo := run(true)
	if ooo.Cycles > inorder.Cycles+5 {
		t.Errorf("OOO %d cycles slower than in-order %d on overlapping misses",
			ooo.Cycles, inorder.Cycles)
	}
}

func TestOOOSelfBaseLoad(t *testing.T) {
	// load r5 ← [r5] must capture the PRIOR writer of r5 at rename,
	// never itself (the in-order engine had the same hazard at issue).
	ins := []isa.Instruction{
		{PC: 0x1000, Class: isa.RR, Dst: 5, Src1: isa.RegNone, Src2: isa.RegNone},
		{PC: 0x1004, Class: isa.Load, Dst: 5, Src1: 5, Src2: isa.RegNone, Addr: 0x1000_0000},
		{PC: 0x1008, Class: isa.RR, Dst: 6, Src1: 5, Src2: isa.RegNone},
	}
	cfg := idealConfig(10)
	cfg.OutOfOrder = true
	r := mustRun(t, cfg, ins)
	if r.Instructions != 3 {
		t.Fatalf("retired %d of 3 (deadlock?)", r.Instructions)
	}
}

func TestOOORespectsTrueDependencies(t *testing.T) {
	// A serial FP chain cannot be reordered: OOO and in-order must
	// take essentially the same time.
	const n, lat = 150, 10
	ins := make([]isa.Instruction, n)
	for i := range ins {
		ins[i] = isa.Instruction{
			PC: uint64(0x1000 + 4*i), Class: isa.FP,
			Dst:  isa.FirstFPR + 1,
			Src1: isa.FirstFPR + 1, Src2: isa.RegNone, FPLat: lat,
		}
	}
	inorder := mustRun(t, idealConfig(10), ins)
	cfg := idealConfig(10)
	cfg.OutOfOrder = true
	ooo := mustRun(t, cfg, ins)
	diff := int64(ooo.Cycles) - int64(inorder.Cycles)
	if diff < -20 || diff > 20 {
		t.Errorf("serial FP chain: OOO %d vs in-order %d cycles", ooo.Cycles, inorder.Cycles)
	}
}

func TestOOOMispredictStillFreezes(t *testing.T) {
	// Misprediction penalties survive out-of-order execution: the
	// front end has nothing correct to fetch.
	mk := func() []isa.Instruction {
		var ins []isa.Instruction
		for b := 0; b < 100; b++ {
			ins = append(ins, isa.Instruction{
				PC: uint64(0x2000 + 64*b), Class: isa.Branch,
				Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
				Target: 0x100, Taken: false,
			})
			for k := 0; k < 3; k++ {
				ins = append(ins, isa.Instruction{
					PC: uint64(0x2000 + 64*b + 4 + 4*k), Class: isa.RR,
					Dst: isa.Reg(k), Src1: isa.RegNone, Src2: isa.RegNone,
				})
			}
		}
		return ins
	}
	cfg := oooConfig(20)
	cfg.Hierarchy = cache.HierarchyConfig{}
	cfg.Predictor = branch.PredictorConfig{Kind: branch.KindStatic}
	r, err := Run(cfg, trace.NewSliceStream(mk()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Hazards.BranchMispredicts != 100 {
		t.Fatalf("mispredicts = %d", r.Hazards.BranchMispredicts)
	}
	if r.StallCycles[StallBranch] < 500 {
		t.Errorf("branch stalls = %d, want substantial refill penalties",
			r.StallCycles[StallBranch])
	}
}

func TestOOODeepAndShallowDepths(t *testing.T) {
	for _, d := range []int{2, 3, 7, 25} {
		r := runWorkload(t, oooConfig(d), workload.SPECFP, 3000)
		if r.Instructions != 3000 {
			t.Fatalf("depth %d: retired %d", d, r.Instructions)
		}
	}
}
