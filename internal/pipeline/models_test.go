package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/workload"
)

// resultBytes runs cfg on the first n instructions of the SPECInt
// representative and returns the encoded ResultData.
func resultBytes(t *testing.T, cfg Config, n int) []byte {
	t.Helper()
	r := runWorkload(t, cfg, workload.SPECInt, n)
	b, err := json.Marshal(r.Data())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunTwiceIsIdentical runs one Config value twice. A Config only
// describes its models, so both runs start cold and must produce
// byte-identical ResultData: on every preset, and on the 16 KiB
// I-cache machine of the memory-system ablation.
func TestRunTwiceIsIdentical(t *testing.T) {
	machines := map[string]Config{}
	for _, p := range Presets() {
		cfg, err := PresetConfig(Preset(p), 10)
		if err != nil {
			t.Fatal(err)
		}
		machines[p] = cfg
	}
	ic := MustDefaultConfig(10)
	ic.ICache = cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}
	ic.ICacheMissFO4 = 90
	machines["icache-16k"] = ic
	for name, cfg := range machines {
		first := resultBytes(t, cfg, 5000)
		if second := resultBytes(t, cfg, 5000); string(first) != string(second) {
			t.Errorf("%s: second run of one Config differs:\n%s\n%s", name, first, second)
		}
	}
}

// TestValidateRejectsBadModelDescriptions: each invalid model
// description is a Validate error, which Run and NewModels return
// instead of panicking in a constructor.
func TestValidateRejectsBadModelDescriptions(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"predictor bits 0":       func(c *Config) { c.Predictor.Bits = 0 },
		"predictor bits 25":      func(c *Config) { c.Predictor.Bits = 25 },
		"unknown predictor kind": func(c *Config) { c.Predictor.Kind = "perceptron" },
		"kindless predictor":     func(c *Config) { c.Predictor.Kind = "" },
		"BTB entries not 2^k":    func(c *Config) { c.BTB.Entries = 500 },
		"BTB ways mismatch":      func(c *Config) { c.BTB.Ways = 3 },
		"L1 line size":           func(c *Config) { c.Hierarchy.L1.LineBytes = 48 },
		"L2 ways":                func(c *Config) { c.Hierarchy.L2.Ways = 0 },
		"I-cache geometry": func(c *Config) {
			c.ICache = cache.Config{SizeBytes: 3 << 10, LineBytes: 64, Ways: 2}
			c.ICacheMissFO4 = 90
		},
	} {
		cfg := MustDefaultConfig(10)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
		if _, err := NewModels(&cfg); err == nil {
			t.Errorf("%s: NewModels accepted it", name)
		}
		if _, err := Run(cfg, trace.NewSliceStream(rrIndependent(10))); err == nil {
			t.Errorf("%s: Run accepted it", name)
		}
	}
}

// TestRunWithWarmOutcomes checks the warmed-models entry points: a
// warm-up changes the measured run; outcomes replayed once from warmed
// models serve runs at any depth, each identical to RunWith on equally
// warmed models; and models built for another machine are refused.
func TestRunWithWarmOutcomes(t *testing.T) {
	prof := workload.Representative(workload.SPECInt)
	packed, err := trace.PackStream(workload.MustGenerator(prof), 8000)
	if err != nil {
		t.Fatal(err)
	}
	warmed := func(cfg Config) *Models {
		t.Helper()
		m, err := NewModels(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Warm(packed.Slice(0, 4000), 4000)
		return m
	}
	data := func(r *Result, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r.Data())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	out := warmed(MustDefaultConfig(10)).Replay(packed.Slice(4000, 8000))
	for _, depth := range []int{6, 18} {
		cfg := MustDefaultConfig(depth)
		replayed := data(RunReplayed(cfg, out, packed.Slice(4000, 8000)))
		if again := data(RunReplayed(cfg, out, packed.Slice(4000, 8000))); again != replayed {
			t.Fatalf("depth %d: a second run on the same outcomes differs:\n%s\n%s", depth, replayed, again)
		}
		if with := data(RunWith(cfg, warmed(cfg), packed.Slice(4000, 8000))); with != replayed {
			t.Fatalf("depth %d: RunWith differs from RunReplayed on the same warm-up:\n%s\n%s", depth, with, replayed)
		}
	}
	cfg := MustDefaultConfig(10)
	warm, err := RunReplayed(cfg, out, packed.Slice(4000, 8000))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(cfg, packed.Slice(4000, 8000))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hazards.BranchMispredicts <= warm.Hazards.BranchMispredicts || cold.L1Misses <= warm.L1Misses {
		t.Fatalf("warm-up did not help: cold %d mispredicts/%d L1 misses, warm %d/%d",
			cold.Hazards.BranchMispredicts, cold.L1Misses, warm.Hazards.BranchMispredicts, warm.L1Misses)
	}
	other, _ := PresetConfig(PresetNarrow, 10)
	if _, err := RunWith(other, warmed(cfg), packed.Slice(4000, 8000)); !errors.Is(err, errModelMismatch) {
		t.Fatalf("models of another machine: err = %v, want errModelMismatch", err)
	}
}

// TestRunReplayedRefusesForeignOutcomes: outcomes serve only the trace
// window they were replayed over, for the model descriptions they were
// recorded with; any other pairing is errModelMismatch.
func TestRunReplayedRefusesForeignOutcomes(t *testing.T) {
	prof := workload.Representative(workload.SPECInt)
	pack := func() *trace.PackedTrace {
		t.Helper()
		p, err := trace.PackStream(workload.MustGenerator(prof), 6000)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	packed, twin := pack(), pack() // the same records in two traces
	cfg := MustDefaultConfig(10)
	m, err := NewModels(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Replay(packed.Slice(2000, 6000))
	gshare := MustDefaultConfig(10)
	gshare.Predictor = branch.PredictorConfig{Kind: branch.KindGShare, Bits: 12}
	withICache := MustDefaultConfig(10)
	withICache.ICache = cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}
	withICache.ICacheMissFO4 = 90
	consumed := packed.Slice(2000, 6000)
	consumed.Skip(1)
	for name, c := range map[string]struct {
		cfg Config
		src *trace.PackedStream
	}{
		"shorter window":    {cfg, packed.Slice(2000, 5000)},
		"shifted window":    {cfg, packed.Slice(1000, 5000)},
		"partly consumed":   {cfg, consumed},
		"another trace":     {cfg, twin.Slice(2000, 6000)},
		"another predictor": {gshare, packed.Slice(2000, 6000)},
		"another I-cache":   {withICache, packed.Slice(2000, 6000)},
	} {
		if _, err := RunReplayed(c.cfg, out, c.src); !errors.Is(err, errModelMismatch) {
			t.Errorf("%s: err = %v, want errModelMismatch", name, err)
		}
	}
	if _, err := RunReplayed(MustDefaultConfig(14), out, packed.Slice(2000, 6000)); err != nil {
		t.Fatalf("matching window at another depth: %v", err)
	}
}

// TestModelOutcomesDepthInvariant states the premise of the paper's
// hazard accounting as a checked law: the predictor, BTB and I-cache
// are consulted at fetch and the data hierarchy at cache exit, always
// in program order, so which access misses and which branch
// mispredicts is a property of the workload and the model descriptions,
// never of the pipeline depth. Every machine below must report the
// same model outcomes and traffic at depths 2–25.
func TestModelOutcomesDepthInvariant(t *testing.T) {
	t.Parallel()
	machines := map[string]func(depth int) Config{}
	for _, p := range []Preset{PresetZSeries, PresetNarrow, PresetWide, PresetZSeriesOOO} {
		machines[string(p)] = func(depth int) Config {
			cfg, err := PresetConfig(p, depth)
			if err != nil {
				t.Fatal(err)
			}
			return cfg
		}
	}
	machines["icache-16k"] = func(depth int) Config {
		cfg := MustDefaultConfig(depth)
		cfg.ICache = cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}
		cfg.ICacheMissFO4 = 90
		return cfg
	}
	for _, kind := range []branch.Kind{branch.KindStatic, branch.KindBimodal, branch.KindGShare, branch.KindTournament} {
		machines["predictor-"+string(kind)] = func(depth int) Config {
			cfg := MustDefaultConfig(depth)
			cfg.Predictor = branch.PredictorConfig{Kind: kind, Bits: 12}
			return cfg
		}
	}
	for _, degree := range []int{0, 4} {
		machines[fmt.Sprintf("prefetch-%d", degree)] = func(depth int) Config {
			cfg := MustDefaultConfig(depth)
			cfg.Hierarchy.PrefetchDegree = degree
			return cfg
		}
	}
	type outcomes struct {
		l1, l2Hits, memAccesses, icache, btb, correct, mispredicts uint64
		traffic                                                    ModelTraffic
	}
	const warm, n = 2000, 3000
	var seen outcomes // sums over every run, so the law is not vacuous
	for _, cls := range []workload.Class{workload.Legacy, workload.Modern, workload.SPECInt, workload.SPECFP} {
		prof := workload.Representative(cls)
		packed, err := trace.PackStream(workload.MustGenerator(prof), warm+n)
		if err != nil {
			t.Fatal(err)
		}
		for name, machine := range machines {
			var want outcomes
			for depth := 2; depth <= 25; depth++ {
				cfg := machine(depth)
				m, err := NewModels(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				m.Warm(packed.Slice(0, warm), warm)
				r, err := RunWith(cfg, m, packed.Slice(warm, warm+n))
				if err != nil {
					t.Fatalf("%s %s depth %d: %v", prof.Name, name, depth, err)
				}
				got := outcomes{r.L1Misses, r.Hazards.LoadL2Hits, r.Hazards.LoadMemAccesses,
					r.ICacheMisses, r.BTBMisses, r.PredictorCorrect, r.Hazards.BranchMispredicts, r.Traffic}
				seen.icache += got.icache
				seen.btb += got.btb
				seen.memAccesses += got.memAccesses
				seen.mispredicts += got.mispredicts
				if depth == 2 {
					want = got
				} else if got != want {
					t.Errorf("%s %s: depth %d outcomes %+v, depth 2 %+v", prof.Name, name, depth, got, want)
				}
			}
		}
	}
	if seen.icache == 0 || seen.btb == 0 || seen.memAccesses == 0 || seen.mispredicts == 0 {
		t.Fatalf("some model never missed: %+v", seen)
	}
}
