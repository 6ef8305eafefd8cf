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
// on a machine with perfect models, five micro-traces have cycle
// budgets that follow from the DepthPlan and the latencies alone, at
// every depth of the paper's range and on both engine settings. The
// timing rules they rest on: an instruction fetched on cycle 1 leaves
// decode Decode cycles later and issues on the next cycle; stages run
// back to front within a cycle, so a value produced in one stage is
// seen by an earlier stage on the following cycle; an instruction
// retires on the cycle after it completes. Three chains exercise the
// in-order issue gates: the operand wait, the FPU gate and the
// address-path wait. Two exercise the front end on an outcome column
// built by hand: a branch loop that always mispredicts and an
// instruction-cache thrash loop.
func TestClosedFormChains(t *testing.T) {
	const n = 40
	for depth := 2; depth <= 25; depth++ {
		cfg := MustDefaultConfig(depth)
		cfg.Predictor, cfg.BTB, cfg.Hierarchy = branch.PredictorConfig{}, branch.BTBConfig{}, cache.HierarchyConfig{}
		// The Decode+1 cycles before the first issue are frontend
		// fill; so are the cycles after the last issue until the last
		// op completes, and the cycle on which it retires is drain.
		fill := uint64(cfg.Plan.Decode) + 1

		// A chain runs on cfg, or on its own machine; out, when set, is
		// its outcome column in place of a replay of cfg's models.
		type chain struct {
			name string
			ins  []isa.Instruction
			want [NumCycleBuckets]uint64
			cfg  *Config
			out  []uint8
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
		chains = append(chains, chain{name: "rr", ins: rr, want: want})

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
			chains = append(chains, chain{name: fmt.Sprintf("fp%d", fpLat), ins: fp, want: want})
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
		chains = append(chains, chain{name: "load-use", ins: ld, want: want})

		// A branch loop that always mispredicts: fetch freezes behind
		// each branch until it resolves, Decode cycles in decode and
		// execLat in the E-pipe after its issue cycle, and resumes on
		// the resolving cycle, which is frontend fill, as is the final
		// cycle on which fetch finds the trace end.
		br := make([]isa.Instruction, n)
		brOut := make([]uint8, n)
		for k := range br {
			br[k] = isa.Instruction{PC: 0x1000, Target: 0x1000, Taken: true, Class: isa.Branch, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
			brOut[k] = outMispredict
		}
		refill := uint64(cfg.Plan.Decode) + execLat
		want = [NumCycleBuckets]uint64{}
		want[BudgetUsefulIssue] = n
		want[BudgetMispredictRefill] = n * refill
		want[BudgetFrontendFill] = n + 1
		chains = append(chains, chain{name: "mispredict-loop", ins: br, want: want, out: brOut})

		// An I-cache thrash loop: lines of Width independent RR ops,
		// each line missing. Fetch takes a whole line on the cycle it
		// misses and resumes M = LatencyCycles(ICacheMissFO4) cycles
		// later, so line j is fetched on cycle 1+jM, issues Decode+1
		// cycles after that and retires two cycles after its issue;
		// the last line's miss also holds fetch from finding the trace
		// end until cycle 1+nM. The cycles strictly inside a line's
		// miss that issue nothing are icache_miss; the rest of the
		// stall cycles are frontend fill, except one drain cycle when
		// the trace end is seen before the last retirement.
		ic := cfg
		ic.ICache, ic.ICacheMissFO4 = cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}, 90
		m := ic.LatencyCycles(ic.ICacheMissFO4)
		w := uint64(ic.Width)
		thrash := make([]isa.Instruction, 0, n*w)
		thrashOut := make([]uint8, n*w)
		for j := uint64(0); j < n; j++ {
			for k := uint64(0); k < w; k++ {
				thrash = append(thrash, isa.Instruction{PC: 0x1000 + 64*j + 4*k, Class: isa.RR, Dst: 1, Src1: isa.RegNone, Src2: isa.RegNone})
			}
			thrashOut[j*w] = outICacheMiss
		}
		lastRetire, traceEnd := (n-1)*m+fill+3, n*m+1
		want = [NumCycleBuckets]uint64{}
		for c := uint64(1); c <= max(lastRetire, traceEnd); c++ {
			sinceFetch := (c - 1) % m // cycles since the latest line fetch
			switch {
			case c >= fill+1 && (c-fill-1)%m == 0 && (c-fill-1)/m < n:
				want[BudgetUsefulIssue]++
			case c >= lastRetire && c > traceEnd:
				want[BudgetDrain]++
			case c > 1 && c < traceEnd && sinceFetch != 0:
				want[BudgetICacheMiss]++
			default:
				want[BudgetFrontendFill]++
			}
		}
		chains = append(chains, chain{name: "icache-thrash", ins: thrash, want: want, cfg: &ic, out: thrashOut})

		for _, c := range chains {
			for _, engine := range []EngineKind{EngineAuto, EnginePerCycle} {
				cfg := cfg
				if c.cfg != nil {
					cfg = *c.cfg
				}
				cfg.Engine = engine
				r, err := runChain(cfg, c.ins, c.out)
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

// runChain runs ins on cfg, replaying cfg's models, or on the given
// outcome column when out is set.
func runChain(cfg Config, ins []isa.Instruction, out []uint8) (*Result, error) {
	if out == nil {
		return Run(cfg, trace.NewSliceStream(ins))
	}
	p, err := trace.Pack(ins)
	if err != nil {
		return nil, err
	}
	o := &Outcomes{spec: cfg.ModelSpec(), trace: p, lo: 0, hi: p.Len(), col: out}
	return RunReplayed(cfg, o, p.Stream())
}
