package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/resultcache"
	"repro/internal/telemetry/span"
	"repro/internal/workload"
)

// cachedCfg is quickCfg with a cache attached.
func cachedCfg(t *testing.T, opts resultcache.Options) (StudyConfig, *resultcache.Cache) {
	t.Helper()
	c, err := resultcache.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.Warmup = -1
	cfg.Instructions = 3000
	cfg.Cache = c
	return cfg, c
}

// summaryBytes digests a sweep to its serialized form, the
// byte-identity witness for cached re-runs.
func summaryBytes(t *testing.T, s *Sweep) []byte {
	t.Helper()
	sum, err := Summarize(s)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteSummaries(&b, []*Summary{sum}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestRunSweepWarmCacheSkipsSimulation is the acceptance criterion: a
// repeated sweep against a warm cache must serve ≥ 90% of design
// points from the cache (here: all of them) and reproduce the cold
// run's results byte-identically.
func TestRunSweepWarmCacheSkipsSimulation(t *testing.T) {
	cfg, cache := cachedCfg(t, resultcache.Options{Dir: t.TempDir()})
	prof := workload.Representative(workload.SPECInt)

	cold, err := RunSweep(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 0 || st.Misses != uint64(len(cfg.Depths)) || st.Stores != uint64(len(cfg.Depths)) {
		t.Fatalf("cold stats = %+v", st)
	}

	warm, err := RunSweep(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	points := uint64(len(cfg.Depths))
	if st.Hits < points*9/10 {
		t.Fatalf("warm run hit %d of %d points, want ≥ 90%%", st.Hits, points)
	}
	if st.Misses != points {
		t.Fatalf("warm run re-simulated: %+v", st)
	}
	if got, want := summaryBytes(t, warm), summaryBytes(t, cold); !bytes.Equal(got, want) {
		t.Fatal("warm-cache sweep not byte-identical to cold sweep")
	}
	// The derived analyses (fit, theory) run on restored results too.
	ce1, err1 := cold.CurveExtraction(DefaultRefDepth)
	ce2, err2 := warm.CurveExtraction(DefaultRefDepth)
	if err1 != nil || err2 != nil {
		t.Fatalf("curve extraction: %v / %v", err1, err2)
	}
	if ce1 != ce2 {
		t.Fatalf("curve extraction diverged: %+v vs %+v", ce1, ce2)
	}
}

// TestRunSweepResumable: an interrupted or extended sweep recomputes
// only the missing cells.
func TestRunSweepResumable(t *testing.T) {
	cfg, cache := cachedCfg(t, resultcache.Options{Dir: t.TempDir()})
	prof := workload.Representative(workload.Modern)

	cfg.Depths = []int{4, 8, 12}
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}

	// Extend the sweep: three old depths plus two new ones.
	cfg.Depths = []int{4, 8, 12, 16, 20}
	ext, err := RunSweep(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 3 {
		t.Fatalf("hits = %d, want 3 (resumed cells)", st.Hits)
	}
	if st.Misses != 5 { // 3 cold + 2 new
		t.Fatalf("misses = %d, want 5", st.Misses)
	}
	if len(ext.Points) != 5 {
		t.Fatalf("points = %d", len(ext.Points))
	}
	for _, p := range ext.Points {
		if p.Result.Instructions != uint64(cfg.Instructions) {
			t.Fatalf("depth %d: %d instructions", p.Depth, p.Result.Instructions)
		}
	}
}

// TestCacheKeyedByStudyParameters: changing any study input must route
// around stale entries.
func TestCacheKeyedByStudyParameters(t *testing.T) {
	cfg, cache := cachedCfg(t, resultcache.Options{Dir: t.TempDir()})
	cfg.Depths = []int{6, 10}
	prof := workload.Representative(workload.SPECInt)
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}
	base := cache.Stats()

	for _, tc := range []struct {
		name string
		mod  func(StudyConfig) StudyConfig
	}{
		{"instructions", func(c StudyConfig) StudyConfig { c.Instructions = 2500; return c }},
		{"warmup", func(c StudyConfig) StudyConfig { c.Warmup = 500; return c }},
		{"power", func(c StudyConfig) StudyConfig {
			c.Power = power.DefaultModel().WithBetaUnit(1.5)
			return c
		}},
		{"machine", func(c StudyConfig) StudyConfig {
			c.Machine = func(d int) (pipeline.Config, error) {
				mc, err := pipeline.DefaultConfig(d)
				mc.Width = 2
				return mc, err
			}
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := cache.Stats()
			if _, err := RunSweep(tc.mod(cfg), prof); err != nil {
				t.Fatal(err)
			}
			after := cache.Stats()
			if after.Hits != before.Hits {
				t.Fatalf("stale cache hit under changed %s", tc.name)
			}
		})
	}
	// Power defaults flow through withDefaults: the unmodified config
	// still hits.
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}
	if after := cache.Stats(); after.Hits != base.Hits+2 {
		t.Fatalf("baseline config no longer hits: %+v", after)
	}
	// A changed workload profile must miss: an edited behaviour under
	// the same name and seed, and a renamed or reseeded profile, all
	// through the key's WorkloadHash.
	for name, edit := range map[string]func(*workload.Profile){
		"behaviour": func(p *workload.Profile) { p.DepP *= 0.5 },
		"name":      func(p *workload.Profile) { p.Name += "-renamed" },
		"seed":      func(p *workload.Profile) { p.Seed++ },
	} {
		edited := prof
		edit(&edited)
		before := cache.Stats()
		if _, err := RunSweep(cfg, edited); err != nil {
			t.Fatal(err)
		}
		if after := cache.Stats(); after.Hits != before.Hits {
			t.Fatalf("stale cache hit for a profile with a changed %s", name)
		}
	}
}

// TestServedPointsArePriced: the cache stores only what the simulator
// measured, so a point served from it is priced, and its power laws
// checked, like a simulated one. A cold sweep under a model that breaks
// a law (negative leakage) fills the cache with no recorder attached;
// each point of the warm sweep, served from the cache with a recorder
// attached, must record power violations. Under the default model the
// served breakdowns equal the simulated ones bit for bit.
func TestServedPointsArePriced(t *testing.T) {
	cfg, cache := cachedCfg(t, resultcache.Options{Dir: t.TempDir()})
	cfg.Depths = []int{3, 8, 14}
	prof := workload.Representative(workload.Modern)
	broken := power.DefaultModel()
	broken.Pl = -broken.Pl
	cfg.Power = broken
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}
	for _, d := range cfg.Depths {
		one := cfg
		one.Depths = []int{d}
		one.Invariants = invariant.New(nil)
		before := cache.Stats()
		if _, err := RunSweep(one, prof); err != nil {
			t.Fatal(err)
		}
		if st := cache.Stats(); st.Hits != before.Hits+1 {
			t.Fatalf("depth %d: not served from the cache: %+v", d, st)
		}
		if one.Invariants.Count() == 0 {
			t.Errorf("depth %d: negative leakage on a served point recorded no violation", d)
		}
	}

	cfg.Power = power.Model{}
	cold, err := RunSweep(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	warm, err := RunSweep(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != before.Hits+uint64(len(cfg.Depths)) {
		t.Fatalf("default-model rerun not served from the cache: %+v", st)
	}
	for i, p := range warm.Points {
		want := cold.Points[i]
		if breakdownBits(p.GatedPower) != breakdownBits(want.GatedPower) ||
			breakdownBits(p.PlainPower) != breakdownBits(want.PlainPower) {
			t.Fatalf("depth %d: served breakdowns differ from the simulated ones", p.Depth)
		}
	}
}

// breakdownBits renders every figure of a breakdown by its bit pattern.
func breakdownBits(b power.Breakdown) string {
	var s strings.Builder
	for _, v := range append([]float64{b.Dynamic, b.Leakage, b.Latches},
		slices.Concat(b.PerUnit[:], b.PerUnitDynamic[:], b.PerUnitLeakage[:])...) {
		fmt.Fprintf(&s, "%x ", math.Float64bits(v))
	}
	return fmt.Sprint(b.Gated, s.String())
}

// TestTracerBypassesCache: a design point carrying an event tracer
// must simulate even when the cell is cached, and must not poison the
// cache with a duplicate store.
func TestTracerBypassesCache(t *testing.T) {
	cfg, cache := cachedCfg(t, resultcache.Options{Dir: t.TempDir()})
	cfg.Depths = []int{6}
	prof := workload.Representative(workload.SPECInt)
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}
	tracer := pipeline.NewTracer(64)
	cfg.Machine = func(d int) (pipeline.Config, error) {
		mc, err := pipeline.DefaultConfig(d)
		mc.Tracer = tracer
		return mc, err
	}
	before := cache.Stats()
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses || after.Stores != before.Stores {
		t.Fatalf("traced run touched the cache: %+v → %+v", before, after)
	}
	if tracer.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
}

// TestRunCatalogSchedulesAgree exercises RunCatalog under different
// parallelism degrees against one shared warm cache, asserting
// schedule-independent, bit-identical results. Runs under -race in CI:
// concurrent sweeps hit the same cache entries simultaneously.
func TestRunCatalogSchedulesAgree(t *testing.T) {
	profs := []workload.Profile{
		workload.Representative(workload.Legacy),
		workload.Representative(workload.Modern),
		workload.Representative(workload.SPECInt),
		workload.Representative(workload.SPECFP),
	}
	cache, err := resultcache.Open(resultcache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := StudyConfig{
		Depths:       []int{4, 7, 10, 14, 18, 22},
		Instructions: 2000,
		Warmup:       -1,
		Cache:        cache,
	}

	var want [][]byte
	for _, par := range []int{1, 2, runtime.NumCPU()} {
		cfg.Parallelism = par
		sweeps, err := RunCatalog(cfg, profs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		got := make([][]byte, len(sweeps))
		for i, s := range sweeps {
			got[i] = summaryBytes(t, s)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("parallelism %d: workload %s diverged from serial run",
					par, profs[i].Name)
			}
		}
	}
	// After the cold serial run, both parallel runs were fully cached.
	st := cache.Stats()
	cells := uint64(len(profs) * len(cfg.Depths))
	if st.Misses != cells {
		t.Fatalf("misses = %d, want %d (only the cold run simulates)", st.Misses, cells)
	}
	if st.Hits != 2*cells {
		t.Fatalf("hits = %d, want %d", st.Hits, 2*cells)
	}
}

// TestDefaultMachineKeyIsStable pins the result-cache key of
// default-machine points: at every simulated depth its ConfigHash is
// the default Config's fingerprint (internal/experiments pins those in
// its config-hash golden; depth 10 is 0601bf3dd4608022), a freshly
// simulated point's Config has the same fingerprint as the point
// restored from the cache, and a cache written through an explicit
// Machine serves every default point.
func TestDefaultMachineKeyIsStable(t *testing.T) {
	prof := workload.Representative(workload.SPECInt)
	def := sweepKey(StudyConfig{}.withDefaults(), prof)
	for _, d := range DefaultDepths() {
		mc := pipeline.MustDefaultConfig(d)
		if got, want := cacheKey(def, &mc, d).ConfigHash, mc.Fingerprint(); got != want {
			t.Fatalf("depth %d: key ConfigHash %s, want %s", d, got, want)
		}
	}
	mc := pipeline.MustDefaultConfig(10)
	if got := cacheKey(def, &mc, 10).ConfigHash; got != "0601bf3dd4608022" {
		t.Fatalf("depth 10: key ConfigHash %s, want 0601bf3dd4608022", got)
	}

	cache, err := resultcache.Open(resultcache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := StudyConfig{Instructions: 2000, Warmup: 2000, Cache: cache, Machine: pipeline.DefaultConfig}
	written, err := RunSweep(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	points := uint64(len(DefaultDepths()))
	if st := cache.Stats(); st.Stores != points || st.Hits != 0 {
		t.Fatalf("explicit-machine pass: %+v, want %d stores and no hits", st, points)
	}
	cfg.Machine = nil
	served, err := RunSweep(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != points || st.Misses != points {
		t.Fatalf("default pass: %+v, want all %d points hit", st, points)
	}
	if !bytes.Equal(summaryBytes(t, served), summaryBytes(t, written)) {
		t.Fatal("default points served from the cache differ from the simulated run")
	}
	for i, p := range served.Points {
		fresh := written.Points[i].Result.Config.Fingerprint()
		if got := p.Result.Config.Fingerprint(); got != fresh {
			t.Fatalf("depth %d: restored ConfigHash %s, simulated %s", p.Depth, got, fresh)
		}
	}
}

// TestCachedSweepPacksNothing: a sweep served wholly from a reopened
// disk cache never packs its workload's trace — it leaves no memo
// entry and opens no pack span — and is bit-identical to the sweep
// that simulated and stored it.
func TestCachedSweepPacksNothing(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := cachedCfg(t, resultcache.Options{Dir: dir})
	prof := workload.Representative(workload.Legacy)
	prof.Seed ^= 0x7061636b // an entry of this test's own
	simulated, err := RunSweep(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	key := memoKey(prof, 0, cfg.Instructions)
	sweepMemo.Lock()
	_, packed := sweepMemo.entries[key]
	delete(sweepMemo.entries, key)
	sweepMemo.order = slices.DeleteFunc(sweepMemo.order, func(k string) bool { return k == key })
	sweepMemo.Unlock()
	if !packed {
		t.Fatal("the simulated sweep left no memo entry")
	}

	reopened, err := resultcache.Open(resultcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = reopened
	tr := span.NewTracer(nil, 0)
	cfg.Spans = tr
	served, err := RunSweep(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if st := reopened.Stats(); st.Hits != uint64(len(cfg.Depths)) || st.Misses != 0 {
		t.Fatalf("reopened cache: %+v, want every point a hit", st)
	}
	sweepMemo.Lock()
	_, packed = sweepMemo.entries[key]
	sweepMemo.Unlock()
	if packed || len(tr.ByName("pack")) != 0 {
		t.Fatal("a sweep served from the cache packed its trace")
	}
	for i, p := range served.Points {
		want := simulated.Points[i]
		if p.Depth != want.Depth || p.FO4 != want.FO4 ||
			!reflect.DeepEqual(p.Result.Data(), want.Result.Data()) ||
			p.GatedPower != want.GatedPower || p.PlainPower != want.PlainPower {
			t.Fatalf("depth %d: served point differs from the simulated one", p.Depth)
		}
	}
	if !bytes.Equal(summaryBytes(t, served), summaryBytes(t, simulated)) {
		t.Fatal("served sweep's summary differs from the simulated one")
	}
}
