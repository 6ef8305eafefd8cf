package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/resultcache"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// maxRetainedPerPoint bounds the live heap one retained design point
// may hold: its Result (counters, issue histogram, manifest) and two
// power breakdowns. A point that pinned its engine or its warmed
// models (the 1 MiB L2 alone is ~140 KiB of tags) would exceed it many
// times over.
const maxRetainedPerPoint = 8 << 10

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedHeapPerPoint is the retained-heap guard: with the memo
// warm (packed traces and outcome columns already built), a catalog run
// over 6 workloads × 24 depths may grow the live heap by at most
// maxRetainedPerPoint per returned point. Per-point model state is
// borrowed for the run and never retained after it.
func TestRetainedHeapPerPoint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are perturbed under the race detector")
	}
	all := workload.All()
	var profs []workload.Profile
	for i := 0; i < 6; i++ {
		profs = append(profs, all[i*len(all)/6])
	}
	cfg := StudyConfig{Instructions: 4000, Warmup: 4000, Parallelism: 2}
	if _, err := RunCatalog(cfg, profs); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	sweeps, err := RunCatalog(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	points := 0
	for _, s := range sweeps {
		points += len(s.Points)
	}
	runtime.KeepAlive(sweeps)
	if points != len(profs)*len(DefaultDepths()) {
		t.Fatalf("got %d points, want %d", points, len(profs)*len(DefaultDepths()))
	}
	per := (int64(after) - int64(before)) / int64(points)
	t.Logf("live heap %d → %d bytes: %d bytes per retained point", before, after, per)
	if per > maxRetainedPerPoint {
		t.Fatalf("%d bytes of live heap per retained point, want ≤ %d", per, maxRetainedPerPoint)
	}
}

// TestPublishedModelTrafficIsMeasuredWindow checks the cache.* and
// btb.* counters against the Results they were published from: on
// simulated points served memoized outcomes of warmed models, they
// count the measured window only, never the warm-up traffic.
func TestPublishedModelTrafficIsMeasuredWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := StudyConfig{Depths: []int{6, 10, 14}, Instructions: 3000, Warmup: 3000,
		Parallelism: 1, Metrics: reg}
	s, err := RunSweep(cfg, workload.Representative(workload.SPECInt))
	if err != nil {
		t.Fatal(err)
	}
	var memOps, l1Misses, btbMisses uint64
	for _, p := range s.Points {
		memOps += p.Result.LoadCount + p.Result.RXCount + p.Result.StoreCount
		l1Misses += p.Result.L1Misses
		btbMisses += p.Result.BTBMisses
	}
	if memOps == 0 || l1Misses == 0 || btbMisses == 0 {
		t.Fatalf("degenerate run: %d memory ops, %d L1 misses, %d BTB misses", memOps, l1Misses, btbMisses)
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"cache.l1.accesses", reg.Counter("cache.l1.accesses").Value(), memOps},
		{"cache.l1.misses", reg.Counter("cache.l1.misses").Value(), l1Misses},
		{"cache.l1.misses vs pipeline.l1_misses", reg.Counter("cache.l1.misses").Value(),
			reg.Counter("pipeline.l1_misses").Value()},
		{"cache.l2.accesses", reg.Counter("cache.l2.accesses").Value(), l1Misses},
		{"btb.lookups - btb.hits", reg.Counter("btb.lookups").Value() - reg.Counter("btb.hits").Value(), btbMisses},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// maxAllocPerHit bounds the bytes one result-cache hit may allocate:
// its key (the machine fingerprint), the restored Result and the
// sweep's per-point bookkeeping. Building the machine's models for a
// hit — the 1 MiB L2 alone is ~140 KiB of tags — exceeds it many times
// over.
const maxAllocPerHit = 16 << 10

// TestCacheHitBuildsNoModels serves a preset machine's sweep from a
// warm in-memory result cache and bounds the bytes allocated per
// point: a Config describes its models, so a hit never constructs them.
func TestCacheHitBuildsNoModels(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures are perturbed under the race detector")
	}
	cache, err := resultcache.Open(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := StudyConfig{Instructions: 2000, Warmup: 2000, Parallelism: 1, Cache: cache,
		Machine: func(d int) (pipeline.Config, error) {
			return pipeline.PresetConfig(pipeline.PresetZSeries, d)
		}}
	prof := workload.Representative(workload.SPECInt)
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := RunSweep(cfg, prof)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	points := uint64(len(s.Points))
	if st := cache.Stats(); st.Hits != points {
		t.Fatalf("second sweep: %+v, want %d hits", st, points)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / points
	t.Logf("%d bytes allocated per cache-hit point", per)
	if per > maxAllocPerHit {
		t.Fatalf("%d bytes allocated per cache-hit point, want ≤ %d", per, maxAllocPerHit)
	}
}

// TestMemoKeepsMeasuredTraceAndOutcomes: after sweeps of two machines
// at 4000+4000 instructions, the workload's memo entry holds the packed
// measured window only — never the warm-up — and one replayed outcome
// column per cell of model descriptions. No live models are retained:
// nothing reachable from an entry's type is a pipeline.Models.
func TestMemoKeepsMeasuredTraceAndOutcomes(t *testing.T) {
	prof := workload.Representative(workload.Modern)
	prof.Seed ^= 0x6d656d6f // an entry of this test's own
	cfg := StudyConfig{Depths: []int{4, 12}, Instructions: 4000, Warmup: 4000, Parallelism: 2}
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}
	cfg.Machine = func(d int) (pipeline.Config, error) { return pipeline.PresetConfig(pipeline.PresetNarrow, d) }
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}
	sweepMemo.Lock()
	e := sweepMemo.entries[memoKey(prof, 4000, 4000)]
	sweepMemo.Unlock()
	if e == nil {
		t.Fatal("no memo entry for the swept workload")
	}
	if n := e.packed.Len(); n != 4000 {
		t.Errorf("entry packs %d records, want the 4000 measured ones", n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.cells) != 2 {
		t.Errorf("entry holds %d outcome columns, want 2 (default and narrow)", len(e.cells))
	}
	narrow, err := pipeline.PresetConfig(pipeline.PresetNarrow, 10)
	if err != nil {
		t.Fatal(err)
	}
	for name, mc := range map[string]pipeline.Config{"default": pipeline.MustDefaultConfig(10), "narrow": narrow} {
		// Each machine's column is found by its model descriptions and
		// covers exactly the entry's packed window.
		c := e.cells[mc.ModelSpec()]
		if c == nil {
			t.Errorf("%s: no outcome column under its model descriptions", name)
			continue
		}
		if c.err != nil {
			t.Fatalf("%s: %v", name, c.err)
		}
		if r, err := pipeline.RunReplayed(mc, c.out, e.packed.Stream()); err != nil || r.Instructions != 4000 {
			t.Errorf("%s: run on its outcomes: %v", name, err)
		}
	}
	if path := reaches(reflect.TypeOf(memoEntry{}), reflect.TypeOf(pipeline.Models{}), map[reflect.Type]bool{}); path != "" {
		t.Errorf("a memo entry can hold live models: %s", path)
	}
}

// reaches reports the field path by which values of type from can
// reference a value of type target, or "" if none exists.
func reaches(from, target reflect.Type, seen map[reflect.Type]bool) string {
	if from == target {
		return from.String()
	}
	if seen[from] {
		return ""
	}
	seen[from] = true
	switch from.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
		return reaches(from.Elem(), target, seen)
	case reflect.Map:
		if p := reaches(from.Key(), target, seen); p != "" {
			return p
		}
		return reaches(from.Elem(), target, seen)
	case reflect.Struct:
		for i := 0; i < from.NumField(); i++ {
			if p := reaches(from.Field(i).Type, target, seen); p != "" {
				return from.Name() + "." + from.Field(i).Name + " → " + p
			}
		}
	case reflect.Interface:
		return "" // the entry's only interfaces are errors
	}
	return ""
}
