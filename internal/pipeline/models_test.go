package pipeline

import (
	"encoding/json"
	"errors"
	"testing"

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

// TestRunWithWarmClones checks the warmed-models entry point: a warm-up
// changes the measured run, two clones of one warmed Models give
// identical results, and models built for another machine are refused.
func TestRunWithWarmClones(t *testing.T) {
	prof := workload.Representative(workload.SPECInt)
	packed, err := trace.PackStream(workload.MustGenerator(prof), 8000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MustDefaultConfig(10)
	warm, err := NewModels(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm.Warm(packed.Slice(0, 4000), 4000)
	run := func(m *Models) ResultData {
		t.Helper()
		r, err := RunWith(cfg, m, packed.Slice(4000, 8000))
		if err != nil {
			t.Fatal(err)
		}
		return r.Data()
	}
	a, b := run(warm.Clone()), run(warm.Clone())
	if a.Cycles != b.Cycles || a.Hazards != b.Hazards || a.L1Misses != b.L1Misses {
		t.Fatalf("clones of one warmed Models diverged: %+v vs %+v", a.Hazards, b.Hazards)
	}
	cold, err := Run(cfg, packed.Slice(4000, 8000))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hazards.BranchMispredicts <= a.Hazards.BranchMispredicts || cold.L1Misses <= a.L1Misses {
		t.Fatalf("warm-up did not help: cold %d mispredicts/%d L1 misses, warm %d/%d",
			cold.Hazards.BranchMispredicts, cold.L1Misses, a.Hazards.BranchMispredicts, a.L1Misses)
	}
	other, _ := PresetConfig(PresetNarrow, 10)
	if _, err := RunWith(other, warm.Clone(), packed.Slice(4000, 8000)); !errors.Is(err, errModelMismatch) {
		t.Fatalf("models of another machine: err = %v, want errModelMismatch", err)
	}
}
