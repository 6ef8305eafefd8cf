package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/branch"
	"repro/internal/cache"
)

// StallCause classifies why the issue stage made no progress on a
// cycle with work in flight.
type StallCause int

// Stall causes, in reporting order.
const (
	// StallBranch: the front end is frozen waiting for a mispredicted
	// branch to resolve.
	StallBranch StallCause = iota
	// StallFrontend: the execution queue is empty because the decode
	// pipeline has not delivered (pipeline fill, redirect bubbles,
	// queue backpressure upstream).
	StallFrontend
	// StallAgen: the head instruction is a memory op still in the
	// address-generation/cache pipeline.
	StallAgen
	// StallMemory: the head instruction waits on a cache miss.
	StallMemory
	// StallDependency: the head instruction's source operands are not
	// ready.
	StallDependency
	// StallFP: the head instruction needs the busy (unpipelined) FPU.
	StallFP

	numStallCauses = iota
)

// NumStallCauses is the number of stall classifications.
const NumStallCauses = int(numStallCauses)

// String names the cause.
func (s StallCause) String() string {
	switch s {
	case StallBranch:
		return "branch"
	case StallFrontend:
		return "frontend"
	case StallAgen:
		return "agen"
	case StallMemory:
		return "memory"
	case StallDependency:
		return "dependency"
	case StallFP:
		return "fp"
	default:
		return fmt.Sprintf("StallCause(%d)", int(s))
	}
}

// HazardCounts tallies hazard events — the N_H of the analytical
// model. Events count occurrences, not cycles: one mispredicted
// branch, one missing load, one dependency episode each count once.
type HazardCounts struct {
	BranchMispredicts uint64
	LoadL2Hits        uint64 // loads satisfied in L2
	LoadMemAccesses   uint64 // loads that went to memory
	DepEpisodes       uint64 // maximal runs of dependency-stall cycles
	FPEpisodes        uint64 // maximal runs of FPU-structural stalls
	AgenEpisodes      uint64 // maximal runs of address-path stalls
}

// Total returns the total hazard event count N_H.
func (h HazardCounts) Total() uint64 {
	return h.BranchMispredicts + h.LoadL2Hits + h.LoadMemAccesses +
		h.DepEpisodes + h.FPEpisodes + h.AgenEpisodes
}

// ActivitySample is one interval of the cycle-resolved activity
// trace: cumulative-to-interval deltas of unit activity and work.
type ActivitySample struct {
	Cycle      uint64           // end of the interval
	UnitActive [NumUnits]uint64 // active cycles within the interval
	UnitOps    [NumUnits]uint64 // instructions processed within the interval
	Retired    uint64           // instructions retired within the interval
}

// ModelTraffic is the attached models' demand traffic over a run's
// measured window, as Models.Replay recorded it: warm-up traffic is
// excluded. It holds plain values, so a Result keeps none of the
// models themselves. It is not part of ResultData: a Result restored
// from the result cache reports none.
type ModelTraffic struct {
	HasHierarchy bool        // a data-cache hierarchy was attached
	L1, L2       cache.Stats // per-level accesses, misses and evictions
	HasBTB       bool        // a branch target buffer was attached
	BTB          branch.BTBStats
}

// since returns the traffic accumulated after the snapshot t0.
func (t ModelTraffic) since(t0 ModelTraffic) ModelTraffic {
	sub := func(a, b cache.Stats) cache.Stats {
		return cache.Stats{Accesses: a.Accesses - b.Accesses,
			Misses: a.Misses - b.Misses, Evictions: a.Evictions - b.Evictions}
	}
	t.L1, t.L2 = sub(t.L1, t0.L1), sub(t.L2, t0.L2)
	t.BTB = branch.BTBStats{Lookups: t.BTB.Lookups - t0.BTB.Lookups, Hits: t.BTB.Hits - t0.BTB.Hits}
	return t
}

// Result is the outcome of one simulation run. It is a value: Run
// allocates it apart from the engine state, and its Config describes
// the models without holding them (nor their Outcomes), so
// a retained Result pins no machine state. The run's identity is
// Config.Fingerprint().
type Result struct {
	Config Config

	// ResultData holds every counter the run measured.
	ResultData

	// Traffic is the attached models' measured-window traffic, the
	// cache.* and btb.* counters PublishMetrics exports.
	Traffic ModelTraffic
}

// CycleTimeFO4 returns the cycle time of the simulated configuration.
func (r *Result) CycleTimeFO4() float64 { return r.Config.CycleTime() }

// TimeFO4 returns total execution time in FO4.
func (r *Result) TimeFO4() float64 { return float64(r.Cycles) * r.CycleTimeFO4() }

// TimePerInstructionFO4 returns τ = T/N_I in FO4 — directly comparable
// to the analytical model's Eq. 1.
func (r *Result) TimePerInstructionFO4() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return r.TimeFO4() / float64(r.Instructions)
}

// BIPS returns instructions per FO4 of time, the simulator's
// performance measure (absolute scale arbitrary, as in the paper).
func (r *Result) BIPS() float64 {
	t := r.TimePerInstructionFO4()
	if t == 0 {
		return 0
	}
	return 1 / t
}

// IPC returns retired instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Alpha returns the measured degree of superscalar processing α:
// instructions issued per issuing cycle.
func (r *Result) Alpha() float64 {
	if r.IssueCycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.IssueCycles)
}

// TotalStallCycles sums stall cycles over all causes.
func (r *Result) TotalStallCycles() uint64 {
	var t uint64
	for _, c := range r.StallCycles {
		t += c
	}
	return t
}

// HazardRate returns N_H/N_I, hazards per instruction.
func (r *Result) HazardRate() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Hazards.Total()) / float64(r.Instructions)
}

// Gamma returns the measured γ: the average fraction of the pipeline
// stalled per hazard, i.e. stall cycles per hazard divided by the
// pipeline depth.
func (r *Result) Gamma() float64 {
	nh := r.Hazards.Total()
	if nh == 0 {
		return 0
	}
	return float64(r.TotalStallCycles()) / float64(nh) / float64(r.Config.Plan.Depth)
}

// UnitWidth returns the processing capacity (instructions per cycle)
// of the unit in this configuration, used to occupancy-weight gated
// power.
func (r *Result) UnitWidth(u Unit) int {
	switch u {
	case UnitAgenQ, UnitAgen:
		return r.Config.AgenWidth
	case UnitCache:
		return r.Config.CachePorts
	case UnitFPU:
		return 1
	default:
		return r.Config.Width
	}
}

// UnitUtilization returns the fraction of the unit's slots that
// carried instructions over the run (the fine-grained clock-gating
// duty factor). The unpipelined FPU reports its busy-cycle fraction.
func (r *Result) UnitUtilization(u Unit) float64 {
	if r.Cycles == 0 {
		return 0
	}
	if u == UnitFPU {
		return float64(r.UnitActive[u]) / float64(r.Cycles)
	}
	util := float64(r.UnitOps[u]) / (float64(r.Cycles) * float64(r.UnitWidth(u)))
	if util > 1 {
		util = 1
	}
	return util
}

// MispredictRate returns mispredicted branches per branch.
func (r *Result) MispredictRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Hazards.BranchMispredicts) / float64(r.Branches)
}

// String renders a multi-line report.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "depth=%d ts=%.2f FO4  N_I=%d cycles=%d IPC=%.3f BIPS=%.5f\n",
		r.Config.Plan.Depth, r.CycleTimeFO4(), r.Instructions, r.Cycles, r.IPC(), r.BIPS())
	fmt.Fprintf(&b, "alpha=%.3f N_H/N_I=%.4f gamma=%.3f stalls=%d\n",
		r.Alpha(), r.HazardRate(), r.Gamma(), r.TotalStallCycles())
	for c := 0; c < NumStallCauses; c++ {
		if r.StallCycles[c] > 0 {
			fmt.Fprintf(&b, "  stall[%s]=%d\n", StallCause(c), r.StallCycles[c])
		}
	}
	fmt.Fprintf(&b, "branches=%d taken=%d mispredict=%.2f%% loads=%d L1miss=%d\n",
		r.Branches, r.TakenBranches, 100*r.MispredictRate(), r.LoadCount, r.L1Misses)
	return b.String()
}

// UtilizationReport renders a per-unit table of stage counts, active
// cycles and slot utilization — the view of the machine the power
// monitor prices.
func (r *Result) UtilizationReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %6s %10s %8s %8s\n", "unit", "stages", "ops", "active%", "util%")
	for u := 0; u < NumUnits; u++ {
		unit := Unit(u)
		active := 0.0
		if r.Cycles > 0 {
			active = 100 * float64(r.UnitActive[u]) / float64(r.Cycles)
		}
		fmt.Fprintf(&b, "%-8s %6d %10d %7.1f%% %7.1f%%\n",
			unit, r.Config.Plan.UnitStages(unit), r.UnitOps[u],
			active, 100*r.UnitUtilization(unit))
	}
	return b.String()
}
