package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/invariant"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runEngines runs the same workload with skip-ahead off (the
// per-cycle reference, fed a plain stream that Run packs) and on (a
// pre-packed stream) and returns both results.
func runEngines(t *testing.T, cfg Config, prof workload.Profile, n int) (ref, opt *Result) {
	t.Helper()
	refCfg := cfg
	refCfg.Engine = EnginePerCycle
	ref, err := Run(refCfg, trace.NewLimitStream(workload.MustGenerator(prof), n))
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	packed, err := trace.PackStream(workload.MustGenerator(prof), n)
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	optCfg := cfg
	optCfg.Engine = EngineAuto
	opt, err = Run(optCfg, packed.Stream())
	if err != nil {
		t.Fatalf("optimized engine: %v", err)
	}
	return ref, opt
}

// TestEngineBitIdentity is the package-local core of the bit-identity
// contract: per-cycle vs packed+skip-ahead must agree on every counter
// in ResultData for representative workloads across depths and config
// variants. The full 55-workload catalog version lives in
// internal/difftest.
func TestEngineBitIdentity(t *testing.T) {
	t.Parallel()
	profiles := []workload.Profile{
		workload.Representative(workload.Legacy),
		workload.Representative(workload.Modern),
		workload.Representative(workload.SPECInt),
		workload.Representative(workload.SPECFP),
	}
	depths := []int{2, 7, 14, 22, 30}
	for _, prof := range profiles {
		for _, d := range depths {
			ref, opt := runEngines(t, MustDefaultConfig(d), prof, 6000)
			if !reflect.DeepEqual(ref.Data(), opt.Data()) {
				t.Errorf("%s depth %d: engines disagree\nref: %+v\nopt: %+v",
					prof.Name, d, ref.Data(), opt.Data())
			}
		}
	}
}

// TestEngineBitIdentityVariants covers the config corners whose gates
// feed skip-ahead's wake computation: instruction-cache stalls,
// non-blocking misses, wrong-path activity charging, and the
// out-of-order window (where skip-ahead must disarm, not drift).
func TestEngineBitIdentityVariants(t *testing.T) {
	t.Parallel()
	prof := workload.Representative(workload.SPECInt)
	variants := map[string]func(*Config){
		"icache": func(c *Config) {
			c.ICache = cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2}
			c.ICacheMissFO4 = 90
		},
		"nonblocking": func(c *Config) { c.NonBlockingCache = true },
		"wrongpath":   func(c *Config) { c.WrongPathActivity = true },
		"ooo":         func(c *Config) { c.OutOfOrder = true },
		"maxcycles":   func(c *Config) { c.MaxCycles = 1 << 40 },
	}
	for name, mutate := range variants {
		for _, d := range []int{5, 18} {
			cfg := MustDefaultConfig(d)
			mutate(&cfg)
			ref, opt := runEngines(t, cfg, prof, 6000)
			if !reflect.DeepEqual(ref.Data(), opt.Data()) {
				t.Errorf("variant %s depth %d: engines disagree\nref: %+v\nopt: %+v",
					name, d, ref.Data(), opt.Data())
			}
		}
	}
}

// TestEngineSkipAheadActuallySkips checks that a run consumes its
// packed stream in place: the caller's cursor ends drained, so a
// caller iterating on after the run sees the records as consumed.
func TestEngineSkipAheadActuallySkips(t *testing.T) {
	t.Parallel()
	prof := workload.Representative(workload.SPECFP)
	packed, err := trace.PackStream(workload.MustGenerator(prof), 4000)
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	ps := packed.Stream()
	if _, err := Run(MustDefaultConfig(20), ps); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, pos, hi := ps.Trace(); pos != hi {
		t.Errorf("packed stream not drained: pos %d != hi %d", pos, hi)
	}
}

// benchEngine runs the benchmark workload, the SPECInt representative
// (a realistic stall mix), on the given engine. Every iteration of
// every setting runs the same packed trace on cold models, so the
// engine pair differs in skip-ahead alone. With observed set, an
// invariant recorder is attached to every run.
func benchEngine(b *testing.B, engine EngineKind, observed bool, depth, n int) {
	prof := workload.Representative(workload.SPECInt)
	packed, err := trace.PackStream(workload.MustGenerator(prof), n)
	if err != nil {
		b.Fatalf("pack: %v", err)
	}
	var rec *invariant.Recorder
	if observed {
		rec = invariant.New(nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := MustDefaultConfig(depth)
		cfg.Engine = engine
		cfg.Invariants = rec
		if _, err := Run(cfg, packed.Stream()); err != nil {
			b.Fatalf("run: %v", err)
		}
	}
	if !rec.OK() {
		b.Fatalf("clean benchmark runs recorded %d violations", rec.Count())
	}
}

func BenchmarkEnginePerCycle(b *testing.B)  { benchEngine(b, EnginePerCycle, false, 10, 10000) }
func BenchmarkEngineOptimized(b *testing.B) { benchEngine(b, EngineAuto, false, 10, 10000) }

// BenchmarkEngineOptimizedInvariants is BenchmarkEngineOptimized with
// an invariant recorder attached: the fused loop with its invariant
// hook armed.
func BenchmarkEngineOptimizedInvariants(b *testing.B) { benchEngine(b, EngineAuto, true, 10, 10000) }
