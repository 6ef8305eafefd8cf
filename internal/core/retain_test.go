package core

import (
	"runtime"
	"testing"

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
