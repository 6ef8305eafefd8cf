package pipeline

import (
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/telemetry/promexp"
	"repro/internal/trace"
	"repro/internal/workload"
)

// checkBudget asserts the cycle budget's conservation laws directly,
// independent of the invariant engine.
func checkBudget(t *testing.T, r *Result) {
	t.Helper()
	if got := r.BudgetTotal(); got != r.Cycles {
		t.Errorf("cycle budget sums to %d, run has %d cycles", got, r.Cycles)
	}
	if r.CycleBudget[BudgetUsefulIssue] != r.IssueCycles {
		t.Errorf("useful-issue bucket %d ≠ issue cycles %d",
			r.CycleBudget[BudgetUsefulIssue], r.IssueCycles)
	}
	if got, want := r.CycleBudget[BudgetICacheMiss]+r.CycleBudget[BudgetFrontendFill],
		r.StallCycles[StallFrontend]; got != want {
		t.Errorf("icache_miss+frontend_fill = %d ≠ frontend stalls %d", got, want)
	}
	if got, want := r.CycleBudget[BudgetMispredictRefill], r.StallCycles[StallBranch]; got != want {
		t.Errorf("mispredict_refill = %d ≠ branch stalls %d", got, want)
	}
}

func TestCycleBudgetSumsAcrossWorkloads(t *testing.T) {
	// The budget must be exhaustive and exclusive on every workload
	// class and in both execution modes.
	for _, prof := range workload.All()[:4] {
		for _, ooo := range []bool{false, true} {
			prof, ooo := prof, ooo
			name := prof.Name
			if ooo {
				name += "/ooo"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				gen, err := workload.NewGenerator(prof)
				if err != nil {
					t.Fatal(err)
				}
				cfg := MustDefaultConfig(14)
				cfg.OutOfOrder = ooo
				rec := invariant.New(nil)
				cfg.Invariants = rec
				r, err := Run(cfg, trace.NewLimitStream(gen, 6000))
				if err != nil {
					t.Fatal(err)
				}
				checkBudget(t, r)
				if !rec.OK() {
					t.Fatalf("invariant violations on a clean run: %v", rec.Violations())
				}
			})
		}
	}
}

func TestCycleBudgetICacheMissBucket(t *testing.T) {
	// An instruction-cache-carrying machine on a large code footprint
	// must attribute some dry-queue cycles to icache_miss.
	prof := workload.All()[0]
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MustDefaultConfig(16)
	r, err := Run(cfg, trace.NewLimitStream(gen, 8000))
	if err != nil {
		t.Fatal(err)
	}
	checkBudget(t, r)
	if r.ICacheMisses > 0 && r.CycleBudget[BudgetICacheMiss] == 0 {
		t.Errorf("%d icache misses but zero icache_miss budget cycles", r.ICacheMisses)
	}
}

func TestCycleBudgetDrainBucket(t *testing.T) {
	// A deep machine running a short hazard-free burst spends its tail
	// cycles draining, and those cycles are not stalls.
	r := mustRun(t, idealConfig(24), rrIndependent(64))
	checkBudget(t, r)
	if r.CycleBudget[BudgetDrain] == 0 {
		t.Error("deep pipeline drained without drain-bucket cycles")
	}
	stallSum := r.TotalStallCycles()
	budgetStalls := r.BudgetTotal() - r.CycleBudget[BudgetUsefulIssue] - r.CycleBudget[BudgetDrain]
	if budgetStalls != stallSum {
		t.Errorf("stall-derived budget cycles %d ≠ total stall cycles %d", budgetStalls, stallSum)
	}
}

func TestCycleBudgetInvariantCatchesSkew(t *testing.T) {
	// Inflating any single bucket must break RuleCycleBudget.
	r := simulatedResult(t)
	for b := 0; b < NumCycleBuckets; b++ {
		mut := r.Data().Restore(r.Config)
		mut.CycleBudget[b]++
		rec := invariant.New(nil)
		if CheckResultInvariants(rec, mut) {
			t.Errorf("skewed bucket %s passed CheckResultInvariants", CycleBucket(b))
		}
		found := false
		for _, v := range rec.Violations() {
			if v.Rule == RuleCycleBudget {
				found = true
			}
		}
		if !found {
			t.Errorf("skewed bucket %s: no %s violation recorded", CycleBucket(b), RuleCycleBudget)
		}
	}
}

func TestCycleBucketNamesAreSharedVocabulary(t *testing.T) {
	// Every bucket name must be in the shared rules table (and vice
	// versa): the metric names, the analyzer and the runtime agree.
	names := CycleBucketNames()
	if len(names) != len(promexp.BudgetBuckets) {
		t.Fatalf("%d bucket names, %d table entries", len(names), len(promexp.BudgetBuckets))
	}
	for _, n := range names {
		if err := promexp.ValidBudgetBucket(n); err != nil {
			t.Errorf("bucket %q: %v", n, err)
		}
		if err := promexp.ValidRegistryName("pipeline.budget." + n); err != nil {
			t.Errorf("registry name for %q: %v", n, err)
		}
	}
}

func TestBudgetReport(t *testing.T) {
	r := simulatedResult(t)
	rep := r.BudgetReport()
	for _, n := range CycleBucketNames() {
		if !strings.Contains(rep, n) {
			t.Errorf("budget report missing bucket %q:\n%s", n, rep)
		}
	}
}
