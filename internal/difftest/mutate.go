package difftest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/power"
)

// Mutation names one injectable violation class — the harness's
// self-test vocabulary. Each class plants a known bug at exactly one
// point in the conformance flow; running with it must flip the
// targeted check (and only that check) to failing, proving the
// detector can actually see the bug class it exists for.
type Mutation string

const (
	// MutNone runs the matrix unmodified.
	MutNone Mutation = ""
	// MutDropRetire drops one retirement from a result's accounting
	// (the classic lost-instruction bug) → pipeline/conservation.
	MutDropRetire Mutation = "drop-retire"
	// MutStallOverflow inflates one stall counter past the cycle count
	// → pipeline/stall_fraction.
	MutStallOverflow Mutation = "stall-overflow"
	// MutNegativePower flips one per-unit wattage negative →
	// power/nonnegative (and the additivity law).
	MutNegativePower Mutation = "negative-power"
	// MutGatedAbovePlain swaps the gated and ungated evaluations →
	// power/gated_bound.
	MutGatedAbovePlain Mutation = "gated-above-plain"
	// MutCacheDrift perturbs a result replayed from the reopened disk
	// cache so the replay is no longer bit-identical → differential/cache.
	MutCacheDrift Mutation = "cache-drift"
	// MutParallelDrift perturbs the serial rerun → differential/parallel.
	MutParallelDrift Mutation = "parallel-drift"
	// MutSeedDrift perturbs the repeated run → differential/seed.
	MutSeedDrift Mutation = "seed-drift"
	// MutCodecDrop loses a field in the decode path → differential/codec.
	MutCodecDrop Mutation = "codec-drop"
	// MutTheorySkew bends the theory curves and displaces the predicted
	// optimum → theory/frequency, theory/convexity, theory/residual.
	MutTheorySkew Mutation = "theory-skew"
	// MutBudgetSkew inflates one cycle-budget bucket so the budget no
	// longer sums to the cycle count → pipeline/cycle_budget.
	MutBudgetSkew Mutation = "budget-skew"
	// MutSkipaheadDrift perturbs the skip-ahead engine's side of the
	// engine bit-identity tier the way a bad span replication would →
	// differential/engines and differential/engines-inv.
	MutSkipaheadDrift Mutation = "skipahead-drift"
)

// Mutations returns every injectable violation class, in a stable
// order (cmd/conformance -mutate accepts exactly these names and its
// self-test iterates them).
func Mutations() []Mutation {
	return []Mutation{
		MutDropRetire,
		MutStallOverflow,
		MutNegativePower,
		MutGatedAbovePlain,
		MutCacheDrift,
		MutParallelDrift,
		MutSeedDrift,
		MutCodecDrop,
		MutTheorySkew,
		MutBudgetSkew,
		MutSkipaheadDrift,
	}
}

func (m Mutation) validate() error {
	if m == MutNone {
		return nil
	}
	for _, k := range Mutations() {
		if m == k {
			return nil
		}
	}
	return fmt.Errorf("difftest: unknown mutation %q (known: %v)", m, Mutations())
}

// applyResult plants the result-level violation classes on copies of
// one design point's outputs; the originals stay untouched so only
// the invariants/results check observes the bug.
func (m Mutation) applyResult(res *pipeline.Result, gated, plain power.Breakdown) (*pipeline.Result, power.Breakdown, power.Breakdown) {
	switch m {
	case MutDropRetire:
		mut := res.Data().Restore(res.Config)
		mut.UnitOps[pipeline.UnitRetire]--
		return mut, gated, plain
	case MutStallOverflow:
		mut := res.Data().Restore(res.Config)
		mut.StallCycles[pipeline.StallBranch] = mut.Cycles + 1
		return mut, gated, plain
	case MutBudgetSkew:
		mut := res.Data().Restore(res.Config)
		mut.CycleBudget[pipeline.BudgetUsefulIssue]++
		return mut, gated, plain
	case MutNegativePower:
		gated.PerUnitDynamic[pipeline.UnitExec] = -gated.PerUnitDynamic[pipeline.UnitExec]
		return res, gated, plain
	case MutGatedAbovePlain:
		return res, plain, gated
	}
	return res, gated, plain
}

// applyCodec plants the decode-loss class on the round-tripped copy.
func (m Mutation) applyCodec(d pipeline.ResultData) pipeline.ResultData {
	if m == MutCodecDrop {
		d.IssueHist = nil
		d.L1Misses = 0
	}
	return d
}

// applySweepMutation perturbs the first point of the first sweep when
// the active mutation matches the targeted class, making the pair
// comparison observably non-identical. The perturbed result object is
// a fresh restore, so no other check sees it.
func applySweepMutation(active, target Mutation, sweeps []*core.Sweep) {
	if active != target || len(sweeps) == 0 || len(sweeps[0].Points) == 0 {
		return
	}
	pt := &sweeps[0].Points[0]
	mut := pt.Result.Data().Restore(pt.Result.Config)
	mut.Cycles++
	pt.Result = mut
}

// applyTheoryCurves bends the sampled theory curves: a mid-range dip
// breaks strict frequency monotonicity and a mid-range spike breaks
// τ's convexity.
func (m Mutation) applyTheoryCurves(freq, tau []float64) {
	if m != MutTheorySkew {
		return
	}
	if n := len(freq); n >= 3 {
		freq[n/2] = freq[n/2-1] * 0.9
	}
	if n := len(tau); n >= 3 {
		tau[n/2] *= 1.5
	}
}

// applyTheoryOptimum displaces the predicted optimum far outside every
// class envelope.
func (m Mutation) applyTheoryOptimum(depth float64) float64 {
	if m == MutTheorySkew {
		return depth + 30
	}
	return depth
}
