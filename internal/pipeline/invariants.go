package pipeline

import (
	"fmt"

	"repro/internal/invariant"
)

// This file wires the runtime invariant engine (package invariant)
// into the simulator. Two layers of laws are checked when a Recorder
// is attached to Config.Invariants:
//
//   - per-cycle capacity laws, verified inside the simulation loop
//     (engine-internal cursors and queue occupancies), and
//   - result-level conservation laws, verified over the finished
//     Result and exported as CheckResultInvariants so the conformance
//     harness can re-verify stored, decoded or deliberately mutated
//     results.
//
// With no Recorder attached the per-cycle layer costs one predictable
// nil-check branch per cycle and the result layer one per run.

// Per-cycle and per-run rule identifiers. Stable names: they key the
// conformance_violations_total telemetry series and the conformance
// report.
const (
	RuleOccupancy    = "pipeline/occupancy"
	RuleCursors      = "pipeline/cursors"
	RuleWindow       = "pipeline/window"
	RuleConservation = "pipeline/conservation"
	RuleIssueHist    = "pipeline/issue_hist"
	RuleStallBound   = "pipeline/stall_fraction"
	RuleUnitActive   = "pipeline/unit_active"
	RuleBranchAcct   = "pipeline/branch_accounting"
	RuleMemoryAcct   = "pipeline/memory_accounting"
	RuleSampleAcct   = "pipeline/sample_accounting"
	RuleCycleBudget  = "pipeline/cycle_budget"
)

// checkCycleInvariants verifies the per-cycle capacity laws: no stage
// processes more instructions than its width (fetched and retired are
// the cycle's counts), queue occupancies stay within their configured
// capacities, and the sequence cursors keep their defining order
// retired ≤ issued ≤ decoded ≤ next within the window capacity. It
// records every breached law and reports whether there was one. The
// cycle body calls it only when cycleLawsHold fails, keeping the fmt
// record path out of the hot loop.
func (s *sim) checkCycleInvariants(fetched, retired int) bool {
	rec := s.inv
	n := 0
	if fetched > s.cfg.Width {
		n++
		rec.Record(invariant.Violation{Rule: RuleOccupancy, Cycle: s.cycle, Unit: UnitFetch.String(),
			Detail: fmt.Sprintf("fetched %d > width %d", fetched, s.cfg.Width)})
	}
	if retired > s.cfg.Width {
		n++
		rec.Record(invariant.Violation{Rule: RuleOccupancy, Cycle: s.cycle, Unit: UnitRetire.String(),
			Detail: fmt.Sprintf("retired %d > width %d", retired, s.cfg.Width)})
	}
	if s.inExecQ < 0 || s.inExecQ > s.cfg.ExecQCap {
		n++
		rec.Record(invariant.Violation{Rule: RuleOccupancy, Cycle: s.cycle, Unit: UnitExecQ.String(),
			Detail: fmt.Sprintf("execution-queue occupancy %d outside [0, %d]", s.inExecQ, s.cfg.ExecQCap)})
	}
	if s.agenQ.size > s.cfg.AgenQCap {
		n++
		rec.Record(invariant.Violation{Rule: RuleOccupancy, Cycle: s.cycle, Unit: UnitAgenQ.String(),
			Detail: fmt.Sprintf("address-queue occupancy %d > capacity %d", s.agenQ.size, s.cfg.AgenQCap)})
	}
	if !s.cursorsOrdered() {
		n++
		rec.Record(invariant.Violation{Rule: RuleCursors, Cycle: s.cycle,
			Detail: fmt.Sprintf("cursor order broken: retired=%d issued=%d decoded=%d next=%d",
				s.retired, s.issued, s.decoded, s.next)})
	}
	if occ := s.next - s.retired; occ > uint64(s.cfg.WindowCap) {
		n++
		rec.Record(invariant.Violation{Rule: RuleWindow, Cycle: s.cycle,
			Detail: fmt.Sprintf("in-flight window %d > capacity %d", occ, s.cfg.WindowCap)})
	}
	return n > 0
}

// cursorsOrdered reports whether retired ≤ issued ≤ decoded ≤ next.
// The issued cursor is a program-order watermark only in-order; the
// out-of-order model issues from the pending window instead.
//
//lint:hotpath per-cycle invariant test; must not allocate
func (s *sim) cursorsOrdered() bool {
	return s.retired <= s.decoded && s.decoded <= s.next &&
		(s.cfg.OutOfOrder || s.retired <= s.issued && s.issued <= s.decoded)
}

// cycleLawsHold is the branch-light form of checkCycleInvariants: true
// exactly when none of its laws is breached, given the cycle's fetch
// and retire counts.
//
//lint:hotpath per-cycle invariant test; must not allocate
func (s *sim) cycleLawsHold(fetched, retired int) bool {
	return fetched <= s.cfg.Width && retired <= s.cfg.Width &&
		s.inExecQ >= 0 && s.inExecQ <= s.cfg.ExecQCap &&
		s.agenQ.size <= s.cfg.AgenQCap && s.cursorsOrdered() &&
		s.next-s.retired <= uint64(s.cfg.WindowCap)
}

// checkRunInvariants verifies the engine-internal conservation law at
// the end of a run: every fetched instruction was retired. The freeze
// front end never fetches down a wrong path, so the squash term of
// fetched = completed + squashed is identically zero; a nonzero
// residue means the engine lost or duplicated instructions.
func (s *sim) checkRunInvariants() {
	drained := s.next == s.retired && s.decoded == s.next && len(s.pending) == 0
	if !s.cfg.OutOfOrder {
		drained = drained && s.issued == s.next
	}
	if !drained {
		s.inv.Record(invariant.Violation{Rule: RuleConservation, Cycle: s.cycle,
			Detail: fmt.Sprintf("fetched %d ≠ completed %d + squashed 0 (issued=%d decoded=%d pending=%d)",
				s.next, s.retired, s.issued, s.decoded, len(s.pending))})
	}
	CheckResultInvariants(s.inv, s.res)
}

// CheckResultInvariants verifies every conservation and sanity law
// expressible over a finished Result, recording breaches into rec. It
// returns true when all laws held. pipeline.Run applies it to every
// result it produces (when Config.Invariants is set); the conformance
// harness applies it to cached, decoded and mutation-injected results.
//
// Laws:
//
//   - retired-ops conservation: Instructions = UnitOps[retire]
//   - issue accounting: ΣIssueHist = Cycles, Σ(w·IssueHist[w]) =
//     Instructions, IssueCycles = Cycles − IssueHist[0]
//   - stall bounds: Σ stall cycles ≤ zero-issue cycles ≤ Cycles, every
//     per-cause stall fraction ∈ [0, 1]
//   - unit activity: UnitActive[u] ≤ Cycles for every unit
//   - branch accounting: Branches = PredictorCorrect + Mispredicts,
//     TakenBranches ≤ Branches
//   - memory accounting: LoadCount + RXCount + StoreCount =
//     UnitOps[cache], L1Misses ≤ UnitOps[cache]
//   - window: MaxWindowOccupied ≤ WindowCap
//   - sampling: Σ sample Retired ≤ Instructions
//   - cycle budget: the per-bucket cycle attribution is exhaustive and
//     exclusive — ΣCycleBudget = Cycles, the useful-issue bucket equals
//     IssueCycles, and each stall-derived bucket reconciles with its
//     StallCycles counter (the frontend cause splits into the
//     icache_miss and frontend_fill buckets)
func CheckResultInvariants(rec *invariant.Recorder, r *Result) bool {
	if rec == nil {
		return true
	}
	before := rec.Count()

	if r.Instructions != r.UnitOps[UnitRetire] {
		rec.Record(invariant.Violation{Rule: RuleConservation, Unit: UnitRetire.String(),
			Detail: fmt.Sprintf("retired instructions %d ≠ retire-unit ops %d",
				r.Instructions, r.UnitOps[UnitRetire])})
	}

	var histSum, histWeighted uint64
	for w, n := range r.IssueHist {
		histSum += n
		histWeighted += uint64(w) * n
	}
	if histSum != r.Cycles {
		rec.Violatef(RuleIssueHist, "issue histogram covers %d cycles, run has %d", histSum, r.Cycles)
	}
	if histWeighted != r.Instructions {
		rec.Violatef(RuleIssueHist, "issue histogram weight %d ≠ instructions %d", histWeighted, r.Instructions)
	}
	if len(r.IssueHist) > 0 {
		if want := r.Cycles - r.IssueHist[0]; r.IssueCycles != want {
			rec.Violatef(RuleIssueHist, "issue cycles %d ≠ cycles−idle %d", r.IssueCycles, want)
		}
	}

	var zeroIssue uint64
	if len(r.IssueHist) > 0 {
		zeroIssue = r.IssueHist[0]
	}
	if st := r.TotalStallCycles(); st > zeroIssue || st > r.Cycles {
		rec.Violatef(RuleStallBound, "stall cycles %d exceed zero-issue cycles %d (run %d)",
			st, zeroIssue, r.Cycles)
	}
	for c := 0; c < NumStallCauses; c++ {
		if r.StallCycles[c] > r.Cycles {
			rec.Record(invariant.Violation{Rule: RuleStallBound,
				Detail: fmt.Sprintf("stall[%s] fraction %d/%d > 1", StallCause(c), r.StallCycles[c], r.Cycles)})
		}
	}

	for u := 0; u < NumUnits; u++ {
		if r.UnitActive[u] > r.Cycles {
			rec.Record(invariant.Violation{Rule: RuleUnitActive, Unit: Unit(u).String(),
				Detail: fmt.Sprintf("active %d cycles of %d", r.UnitActive[u], r.Cycles)})
		}
	}

	if r.Branches != r.PredictorCorrect+r.Hazards.BranchMispredicts {
		rec.Violatef(RuleBranchAcct, "branches %d ≠ correct %d + mispredicted %d",
			r.Branches, r.PredictorCorrect, r.Hazards.BranchMispredicts)
	}
	if r.TakenBranches > r.Branches {
		rec.Violatef(RuleBranchAcct, "taken %d > branches %d", r.TakenBranches, r.Branches)
	}

	memOps := r.LoadCount + r.RXCount + r.StoreCount
	if memOps != r.UnitOps[UnitCache] {
		rec.Record(invariant.Violation{Rule: RuleMemoryAcct, Unit: UnitCache.String(),
			Detail: fmt.Sprintf("loads %d + RX %d + stores %d ≠ cache ops %d",
				r.LoadCount, r.RXCount, r.StoreCount, r.UnitOps[UnitCache])})
	}
	if r.L1Misses > r.UnitOps[UnitCache] {
		rec.Record(invariant.Violation{Rule: RuleMemoryAcct, Unit: UnitCache.String(),
			Detail: fmt.Sprintf("L1 misses %d > cache ops %d", r.L1Misses, r.UnitOps[UnitCache])})
	}

	if cap := r.Config.WindowCap; cap > 0 && r.MaxWindowOccupied > cap {
		rec.Violatef(RuleWindow, "max window occupancy %d > capacity %d", r.MaxWindowOccupied, cap)
	}

	var sampled uint64
	for _, sm := range r.Samples {
		sampled += sm.Retired
	}
	if sampled > r.Instructions {
		rec.Violatef(RuleSampleAcct, "sampled retirements %d > instructions %d", sampled, r.Instructions)
	}

	if total := r.BudgetTotal(); total != r.Cycles {
		rec.Violatef(RuleCycleBudget, "cycle budget sums to %d, run has %d cycles", total, r.Cycles)
	}
	if r.CycleBudget[BudgetUsefulIssue] != r.IssueCycles {
		rec.Violatef(RuleCycleBudget, "useful-issue bucket %d ≠ issue cycles %d",
			r.CycleBudget[BudgetUsefulIssue], r.IssueCycles)
	}
	budgetOf := map[StallCause]uint64{
		StallBranch:     r.CycleBudget[BudgetMispredictRefill],
		StallFrontend:   r.CycleBudget[BudgetICacheMiss] + r.CycleBudget[BudgetFrontendFill],
		StallAgen:       r.CycleBudget[BudgetAgenWindow],
		StallMemory:     r.CycleBudget[BudgetDCacheMiss],
		StallDependency: r.CycleBudget[BudgetDependency],
		StallFP:         r.CycleBudget[BudgetFPStructural],
	}
	for cause, got := range budgetOf {
		if got != r.StallCycles[cause] {
			rec.Violatef(RuleCycleBudget, "budget cycles %d for cause %s ≠ stall cycles %d",
				got, cause, r.StallCycles[cause])
		}
	}

	return rec.Count() == before
}
