package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
)

// TestClosedFormChains is an oracle independent of any earlier run:
// on a machine with perfect models, three micro-traces have cycle
// budgets that follow from the DepthPlan and the latencies alone, at
// every depth of the paper's range and on both engine settings. The
// timing rules they rest on: an instruction fetched on cycle 1 leaves
// decode Decode cycles later and issues on the next cycle; stages run
// back to front within a cycle, so a value produced in one stage is
// seen by an earlier stage on the following cycle; an instruction
// retires on the cycle after it completes. Each chain exercises one of
// the in-order issue gates: the operand wait, the FPU gate and the
// address-path wait.
func TestClosedFormChains(t *testing.T) {
	const n = 40
	for depth := 2; depth <= 25; depth++ {
		cfg := MustDefaultConfig(depth)
		cfg.Predictor, cfg.BTB, cfg.Hierarchy = branch.PredictorConfig{}, branch.BTBConfig{}, cache.HierarchyConfig{}
		// The Decode+1 cycles before the first issue are frontend
		// fill; so are the cycles after the last issue until the last
		// op completes, and the cycle on which it retires is drain.
		fill := uint64(cfg.Plan.Decode) + 1

		type chain struct {
			name string
			ins  []isa.Instruction
			want [NumCycleBuckets]uint64
		}
		var chains []chain

		// A dependent RR chain forwards in one cycle at every depth:
		// one issue per cycle and no dependency stall.
		rr := make([]isa.Instruction, n)
		for k := range rr {
			rr[k] = isa.Instruction{PC: 0x1000 + 4*uint64(k), Class: isa.RR, Dst: 1, Src1: 1, Src2: isa.RegNone}
		}
		var want [NumCycleBuckets]uint64
		want[BudgetUsefulIssue], want[BudgetFrontendFill], want[BudgetDrain] = n, fill+1, 1
		chains = append(chains, chain{"rr", rr, want})

		// An FP chain pays max(FPLat, execLat) per op on the
		// unpipelined FPU: lat−1 structural cycles between issues, and
		// lat frontend cycles while the last op completes.
		execLat := uint64(max(1, cfg.Plan.Exec))
		for _, fpLat := range []uint64{1, 4, execLat + 3} {
			fp := make([]isa.Instruction, n)
			for k := range fp {
				fp[k] = isa.Instruction{PC: 0x1000 + 4*uint64(k), Class: isa.FP, Dst: 17, Src1: 17, Src2: isa.RegNone, FPLat: uint8(fpLat)}
			}
			lat := max(fpLat, execLat)
			var want [NumCycleBuckets]uint64
			want[BudgetUsefulIssue] = n
			want[BudgetFPStructural] = (n - 1) * (lat - 1)
			want[BudgetFrontendFill] = fill + lat
			want[BudgetDrain] = 1
			chains = append(chains, chain{fmt.Sprintf("fp%d", fpLat), fp, want})
		}

		// A load→use chain: each load's base is the previous use's
		// result, and each use consumes the load. A use issues with the
		// next load; that load enters the agen pipe a cycle later,
		// spends max(Agen, 1) cycles there and Cache cycles in the cache
		// pipe, and its data is seen the cycle after it leaves. The use
		// waits in agen_window for all of it; the first load, with no
		// producer, issues alone.
		ld := make([]isa.Instruction, 0, 2*n)
		for k := 0; k < n; k++ {
			pc := 0x1000 + 8*uint64(k)
			ld = append(ld,
				isa.Instruction{PC: pc, Addr: 0x8000 + 64*uint64(k), Class: isa.Load, Dst: 2, Src1: 1, Src2: isa.RegNone},
				isa.Instruction{PC: pc + 4, Class: isa.RR, Dst: 1, Src1: 2, Src2: isa.RegNone})
		}
		path := uint64(max(cfg.Plan.Agen, 1) + cfg.Plan.Cache)
		want = [NumCycleBuckets]uint64{}
		want[BudgetUsefulIssue] = n + 1
		want[BudgetAgenWindow] = path + (n-1)*(path+1)
		want[BudgetFrontendFill] = fill + 1
		want[BudgetDrain] = 1
		chains = append(chains, chain{"load-use", ld, want})

		for _, c := range chains {
			for _, engine := range []EngineKind{EngineAuto, EnginePerCycle} {
				cfg := cfg
				cfg.Engine = engine
				r, err := Run(cfg, trace.NewSliceStream(c.ins))
				if err != nil {
					t.Fatalf("depth %d %s engine %d: %v", depth, c.name, engine, err)
				}
				var total uint64
				for _, v := range c.want {
					total += v
				}
				if r.CycleBudget != c.want || r.Cycles != total {
					t.Errorf("depth %d %s engine %d: %d cycles, budget %v; want %d, %v",
						depth, c.name, engine, r.Cycles, r.CycleBudget, total, c.want)
				}
				if r.StallCycles[StallDependency] != 0 {
					t.Errorf("depth %d %s engine %d: %d dependency stall cycles, want 0",
						depth, c.name, engine, r.StallCycles[StallDependency])
				}
			}
		}
	}
}
