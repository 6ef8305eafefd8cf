package core

import (
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
// warm (packed traces and warmed donors already built), a catalog run
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
// simulated points served warmed donor clones, they count the measured
// window only, never the warm-up traffic the clones inherit.
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
