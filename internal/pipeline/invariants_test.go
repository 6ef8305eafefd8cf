package pipeline

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/invariant"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestInvariantEngineCleanOnRealRuns attaches the invariant engine to
// real simulations across depths, modes and random traces and asserts
// the engine's laws all hold — zero violations on correct runs is the
// precondition for cmd/conformance exiting 0.
func TestInvariantEngineCleanOnRealRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, depth := range []int{MinSimDepth, 7, 19, 25} {
		for _, ooo := range []bool{false, true} {
			ins := randomTrace(rng, 800)
			rec := invariant.New(nil)
			mc := MustDefaultConfig(depth)
			mc.OutOfOrder = ooo
			mc.Invariants = rec
			if _, err := Run(mc, trace.NewSliceStream(ins)); err != nil {
				t.Fatalf("depth %d ooo %v: %v", depth, ooo, err)
			}
			if !rec.OK() {
				t.Errorf("depth %d ooo %v: %d violations, e.g. %v",
					depth, ooo, rec.Count(), rec.Violations()[0])
			}
		}
	}
}

// TestInvariantEngineDoesNotPerturbResults: a run with the engine
// attached must be bit-identical to the same run without it.
func TestInvariantEngineDoesNotPerturbResults(t *testing.T) {
	ins := randomTrace(rand.New(rand.NewSource(43)), 600)
	run := func(attach bool) ResultData {
		mc := MustDefaultConfig(11)
		if attach {
			mc.Invariants = invariant.New(nil)
		}
		r, err := Run(mc, trace.NewSliceStream(ins))
		if err != nil {
			t.Fatal(err)
		}
		return r.Data()
	}
	if a, b := run(false), run(true); !reflect.DeepEqual(a, b) {
		t.Fatalf("invariant engine perturbed the measurement:\noff: %+v\non:  %+v", a, b)
	}
}

// TestCheckResultInvariantsTripsOnMutations corrupts one law at a time
// in a genuine Result and asserts the corresponding rule fires — the
// self-test guaranteeing the checker can actually see violations.
func TestCheckResultInvariantsTripsOnMutations(t *testing.T) {
	base, err := Run(MustDefaultConfig(12), trace.NewSliceStream(randomTrace(rand.New(rand.NewSource(47)), 700)))
	if err != nil {
		t.Fatal(err)
	}
	if rec := invariant.New(nil); !CheckResultInvariants(rec, base) {
		t.Fatalf("baseline result not clean: %v", rec.Violations())
	}

	cases := []struct {
		name   string
		rule   string
		mutate func(r *Result)
	}{
		{"drop retirement", RuleConservation, func(r *Result) { r.UnitOps[UnitRetire]-- }},
		{"issue hist undercounts cycles", RuleIssueHist, func(r *Result) { r.IssueHist[0]-- }},
		{"issue cycles drift", RuleIssueHist, func(r *Result) { r.IssueCycles++ }},
		{"stall overflow", RuleStallBound, func(r *Result) { r.StallCycles[StallBranch] = r.Cycles + 1 }},
		{"unit active beyond run", RuleUnitActive, func(r *Result) { r.UnitActive[UnitExec] = r.Cycles + 1 }},
		{"branch accounting", RuleBranchAcct, func(r *Result) { r.PredictorCorrect++ }},
		{"taken exceeds branches", RuleBranchAcct, func(r *Result) { r.TakenBranches = r.Branches + 1 }},
		{"memory accounting", RuleMemoryAcct, func(r *Result) { r.LoadCount++ }},
		{"miss overflow", RuleMemoryAcct, func(r *Result) { r.L1Misses = r.UnitOps[UnitCache] + 1 }},
		{"window overflow", RuleWindow, func(r *Result) { r.MaxWindowOccupied = r.Config.WindowCap + 1 }},
		{"sample overflow", RuleSampleAcct, func(r *Result) {
			r.Samples = []ActivitySample{{Retired: r.Instructions + 1}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := base.Data().Restore(base.Config)
			tc.mutate(mut)
			rec := invariant.New(nil)
			if CheckResultInvariants(rec, mut) {
				t.Fatal("mutation not detected")
			}
			found := false
			for _, rc := range rec.Summary() {
				if rc.Rule == tc.rule {
					found = true
				}
			}
			if !found {
				t.Fatalf("expected rule %s, got %+v", tc.rule, rec.Summary())
			}
		})
	}
}

// TestPlantedBreachSameOnEveryEngine plants a capacity breach that
// persists through quiet stall spans and requires the skip-ahead
// engines to record exactly the per-cycle engine's violations: the
// same rules, first cycle and count. A breaching cycle must not be
// replicated, since per-cycle stepping records the breach again on
// every frozen cycle.
func TestPlantedBreachSameOnEveryEngine(t *testing.T) {
	plants := map[string]func(*sim){
		// The execution-queue count starts one below the true
		// occupancy, so the occupancy law breaks whenever the queue is
		// empty: every cycle of a mispredict or fill freeze.
		"execq-underflow": func(s *sim) { s.inExecQ = -1 },
		// The window law checks a cap below the machine's real window,
		// so it breaks whenever a stall lets the window fill past it.
		"window-over-law": func(s *sim) { s.cfg.WindowCap = 24 },
	}
	prof := workload.Representative(workload.SPECInt)
	const n = 4000
	packed, err := trace.PackStream(workload.MustGenerator(prof), n)
	if err != nil {
		t.Fatal(err)
	}
	for name, plant := range plants {
		for _, depth := range []int{5, 18} {
			run := func(engine EngineKind, src trace.Stream) (ResultData, *invariant.Recorder) {
				t.Helper()
				rec := invariant.New(nil)
				cfg := MustDefaultConfig(depth)
				cfg.Engine = engine
				cfg.Invariants = rec
				ps, err := packInput(src)
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewModels(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				s := newSim(cfg, m.Replay(ps), ps)
				plant(s)
				r, err := s.run()
				if err != nil {
					t.Fatalf("%s depth %d: %v", name, depth, err)
				}
				return r.Data(), rec
			}
			ref, refRec := run(EnginePerCycle, trace.NewLimitStream(workload.MustGenerator(prof), n))
			if refRec.Count() < 100 {
				t.Fatalf("%s depth %d: plant recorded only %d violations; it no longer spans stalls",
					name, depth, refRec.Count())
			}
			first := refRec.Violations()[0]
			for leg, src := range map[string]trace.Stream{
				"packed": packed.Stream(),
				"plain":  trace.NewLimitStream(workload.MustGenerator(prof), n),
			} {
				got, rec := run(EngineAuto, src)
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s depth %d %s: results differ from per-cycle", name, depth, leg)
				}
				if rec.Count() != refRec.Count() || !reflect.DeepEqual(rec.Summary(), refRec.Summary()) {
					t.Errorf("%s depth %d %s: %v violations, per-cycle %v", name, depth, leg,
						rec.Summary(), refRec.Summary())
				}
				if vs := rec.Violations(); len(vs) > 0 && (vs[0].Rule != first.Rule || vs[0].Cycle != first.Cycle) {
					t.Errorf("%s depth %d %s: first violation %s at cycle %d, per-cycle %s at %d",
						name, depth, leg, vs[0].Rule, vs[0].Cycle, first.Rule, first.Cycle)
				}
				if !reflect.DeepEqual(rec.Violations(), refRec.Violations()) {
					t.Errorf("%s depth %d %s: retained violation sequence differs", name, depth, leg)
				}
			}
		}
	}
}
