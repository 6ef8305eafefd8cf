package core

import (
	"testing"

	"repro/internal/resultcache"
	"repro/internal/telemetry"
	"repro/internal/telemetry/promexp"
	"repro/internal/telemetry/span"
	"repro/internal/workload"
)

// spanCfg is quickCfg with a span tracer attached.
func spanCfg(reg *telemetry.Registry) (StudyConfig, *span.Tracer) {
	tr := span.NewTracer(reg, 0)
	cfg := quickCfg()
	cfg.Spans = tr
	return cfg, tr
}

func TestSweepSpanTree(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg, tr := spanCfg(reg)
	prof := workload.Representative(workload.SPECInt)
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}

	roots := tr.ByName("workload")
	if len(roots) != 1 {
		t.Fatalf("workload spans = %d, want 1", len(roots))
	}
	if wl, _ := roots[0].Attr("workload"); wl != prof.Name {
		t.Errorf("workload attr = %q, want %q", wl, prof.Name)
	}
	points := tr.ByName("point")
	if len(points) != len(cfg.Depths) {
		t.Fatalf("point spans = %d, want %d", len(points), len(cfg.Depths))
	}
	// The default engine pre-decodes the trace once per sweep: exactly
	// one pack phase, under the point that first had to simulate.
	packs := tr.ByName("pack")
	if len(packs) != 1 {
		t.Fatalf("pack spans = %+v, want one", packs)
	}
	underPoint := false
	for _, pt := range points {
		underPoint = underPoint || packs[0].Parent == pt.ID
	}
	if !underPoint {
		t.Fatalf("pack span %+v is not under a point of the workload", packs[0])
	}
	for _, pt := range points {
		if pt.Parent != roots[0].ID {
			t.Fatalf("point span %d not under the workload span", pt.ID)
		}
		// Uncached points decompose into the four phases; the phase
		// intervals nest inside the point and (within the monotonic
		// clock's resolution) sum to no more than its duration.
		kids := tr.Children(pt.ID)
		seen := map[string]bool{}
		var kidNS int64
		for _, k := range kids {
			seen[k.Name] = true
			kidNS += k.DurNS
			if k.StartNS < pt.StartNS || k.StartNS+k.DurNS > pt.StartNS+pt.DurNS+int64(1e6) {
				t.Errorf("phase %s [%d,+%d] outside point [%d,+%d]",
					k.Name, k.StartNS, k.DurNS, pt.StartNS, pt.DurNS)
			}
		}
		// Decode happens once per sweep (the pack span above, inside one
		// point), so a point decomposes into the remaining three phases.
		for _, phase := range []string{"warmup", "simulate", "power"} {
			if !seen[phase] {
				t.Errorf("point span %d missing phase %q (has %v)", pt.ID, phase, seen)
			}
		}
		if kidNS > pt.DurNS+int64(2e6) {
			t.Errorf("phases sum to %dns, point span only %dns", kidNS, pt.DurNS)
		}
	}

	// Every span name is in the shared vocabulary, and the phase
	// histograms reached the registry.
	if errs := tr.Lint(promexp.ValidSpanName); len(errs) > 0 {
		t.Fatalf("span lint: %v", errs)
	}
	if n := reg.Histogram("span.simulate_us").Count(); n != uint64(len(cfg.Depths)) {
		t.Errorf("span.simulate_us count = %d, want %d", n, len(cfg.Depths))
	}
}

func TestCatalogSpanTreeParallel(t *testing.T) {
	// Parallelism > 1 exercises concurrent span emission from the
	// per-depth and per-workload worker goroutines; the race shard of
	// CI runs this under the race detector.
	reg := telemetry.NewRegistry()
	cfg, tr := spanCfg(reg)
	cfg.Depths = []int{4, 8, 12, 16}
	cfg.Instructions = 3000
	cfg.Parallelism = 4
	profs := []workload.Profile{
		workload.Representative(workload.SPECInt),
		workload.Representative(workload.SPECFP),
		workload.Representative(workload.Modern),
	}
	if _, err := RunCatalog(cfg, profs); err != nil {
		t.Fatal(err)
	}
	study := tr.ByName("study")
	if len(study) != 1 {
		t.Fatalf("study spans = %d, want 1", len(study))
	}
	workloads := tr.ByName("workload")
	if len(workloads) != len(profs) {
		t.Fatalf("workload spans = %d, want %d", len(workloads), len(profs))
	}
	for _, w := range workloads {
		if w.Parent != study[0].ID {
			t.Fatalf("workload span %d not under the study span", w.ID)
		}
	}
	if pts := tr.ByName("point"); len(pts) != len(profs)*len(cfg.Depths) {
		t.Fatalf("point spans = %d, want %d", len(pts), len(profs)*len(cfg.Depths))
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d spans", tr.Dropped())
	}
}

func TestCachedPointSpans(t *testing.T) {
	cache, err := resultcache.Open(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cfg, tr := spanCfg(reg)
	cfg.Depths = []int{6, 10}
	cfg.Instructions = 2000
	cfg.Cache = cache
	prof := workload.Representative(workload.SPECInt)
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}
	var hits int
	for _, pt := range tr.ByName("point") {
		if v, _ := pt.Attr("cache"); v == "hit" {
			hits++
			// A cache-hit point has only the lookup child, no simulate.
			for _, k := range tr.Children(pt.ID) {
				if k.Name == "simulate" {
					t.Errorf("cache-hit point %d simulated", pt.ID)
				}
			}
		}
	}
	if hits != len(cfg.Depths) {
		t.Errorf("cache-hit point spans = %d, want %d", hits, len(cfg.Depths))
	}
	if n := reg.Histogram("span.cache_us").Count(); n == 0 {
		t.Error("span.cache_us histogram empty")
	}
}

func TestSweepWithoutSpansIsUnchanged(t *testing.T) {
	// The nil-tracer path must not alter results: bit-identical to a
	// traced run.
	prof := workload.Representative(workload.SPECInt)
	plain, err := RunSweep(quickCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := spanCfg(nil)
	traced, err := RunSweep(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Points {
		a, b := plain.Points[i].Result, traced.Points[i].Result
		if a.Cycles != b.Cycles || a.Instructions != b.Instructions ||
			a.CycleBudget != b.CycleBudget {
			t.Fatalf("depth %d: traced sweep diverged", plain.Points[i].Depth)
		}
	}
}

func TestParentNestsStudyUnderCallerSpan(t *testing.T) {
	// depthd's pattern: the caller owns a job span; with Parent set,
	// the study tree nests under it so a per-job Rollup sees the
	// phases.
	reg := telemetry.NewRegistry()
	cfg, tr := spanCfg(reg)
	job := tr.Start("job")
	cfg.Parent = job
	prof := workload.Representative(workload.SPECInt)
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}
	job.End()

	wls := tr.ByName("workload")
	if len(wls) != 1 || wls[0].Parent != job.ID() {
		t.Fatalf("workload span not nested under the job span: %+v", wls)
	}
	roll := tr.Rollup(job.ID())
	if roll["point"].Count != len(cfg.Depths) {
		t.Fatalf("job rollup points = %d, want %d", roll["point"].Count, len(cfg.Depths))
	}
	if roll["simulate"].TotalNS <= 0 {
		t.Fatalf("job rollup simulate total = %d, want > 0", roll["simulate"].TotalNS)
	}

	// Parent without Spans stays fully disabled.
	cfg2 := quickCfg()
	cfg2.Parent = job
	if _, err := RunSweep(cfg2, prof); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.ByName("workload")); got != 1 {
		t.Fatalf("Parent without Spans emitted spans (workloads = %d)", got)
	}
}
