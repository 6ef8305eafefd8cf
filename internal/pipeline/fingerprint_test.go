package pipeline

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/telemetry"
)

// fmtFingerprint is Config.Fingerprint as it was first written, with
// fmt, the branch descriptions' fmt renderings inlined. Every
// result-cache key on disk was rendered by it, so it is the oracle the
// fmt-free renderer must match byte for byte.
func fmtFingerprint(c *Config) string {
	pred, btb, hier, icache := "none", "none", "none", "none"
	if c.Predictor != (branch.PredictorConfig{}) {
		if c.Predictor.Kind == branch.KindStatic {
			pred = "static"
		} else {
			pred = fmt.Sprintf("%s/%d", c.Predictor.Kind, 1<<c.Predictor.Bits)
		}
	}
	if c.BTB != (branch.BTBConfig{}) {
		btb = fmt.Sprintf("btb/%d/%d", c.BTB.Entries, c.BTB.Ways)
	}
	if c.Hierarchy != (cache.HierarchyConfig{}) {
		hier = fmt.Sprintf("%+v", c.Hierarchy)
	}
	if c.ICache != (cache.Config{}) {
		icache = fmt.Sprintf("icache:%+v/%g", c.ICache, c.ICacheMissFO4)
	}
	return telemetry.Fingerprint(
		fmt.Sprintf("geom:%d/%d/%d/%d q:%d/%d/%d ooo:%t",
			c.Width, c.AgenWidth, c.CachePorts, c.BranchWidth,
			c.AgenQCap, c.ExecQCap, c.WindowCap, c.OutOfOrder),
		fmt.Sprintf("plan:%+v", c.Plan),
		fmt.Sprintf("tech:tp=%g,to=%g", c.TP, c.TO),
		pred, btb, hier, icache,
		fmt.Sprintf("btbmiss:%d nonblock:%t redirect:%t wrongpath:%t keep:false",
			c.BTBMissBubbles, c.NonBlockingCache, c.RedirectBubble,
			c.WrongPathActivity),
		fmt.Sprintf("sample:%d maxcycles:%d", c.SampleInterval, c.MaxCycles),
	)
}

// fingerprintMachines are the machines the study builds: the presets
// and the ablation variants of the default machine.
func fingerprintMachines() map[string]func(*Config) {
	m := map[string]func(*Config){
		"abl-ooo":             func(c *Config) { c.OutOfOrder = true },
		"abl-memsys/nonblock": func(c *Config) { c.NonBlockingCache = true },
		"abl-wrongpath":       func(c *Config) { c.WrongPathActivity = true },
		"abl-memsys/icache-16": func(c *Config) {
			c.ICache, c.ICacheMissFO4 = cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}, 90
		},
		"abl-memsys/icache-64": func(c *Config) {
			c.ICache, c.ICacheMissFO4 = cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4}, 90
		},
		"abl-width/2": func(c *Config) { c.Width = 2 },
		"abl-width/8": func(c *Config) {
			c.Width, c.AgenWidth, c.CachePorts, c.BranchWidth, c.ExecQCap = 8, 4, 4, 2, 32
		},
	}
	for _, p := range Presets() {
		p := Preset(p)
		m["preset/"+string(p)] = func(c *Config) {
			pc, err := PresetConfig(p, c.Plan.Depth)
			if err != nil {
				panic(err)
			}
			*c = pc
		}
	}
	for _, k := range []branch.Kind{branch.KindStatic, branch.KindBimodal, branch.KindGShare, branch.KindTournament} {
		m["abl-predictor/"+string(k)] = func(c *Config) { c.Predictor = branch.PredictorConfig{Kind: k, Bits: 12} }
	}
	for _, d := range []int{0, 1, 2, 4} {
		m[fmt.Sprintf("abl-prefetch/%d", d)] = func(c *Config) { c.Hierarchy.PrefetchDegree = d }
	}
	for _, q := range [][2]int{{2, 4}, {4, 8}, {8, 16}, {16, 32}} {
		m[fmt.Sprintf("abl-queues/%d-%d", q[0], q[1])] = func(c *Config) { c.AgenQCap, c.ExecQCap = q[0], q[1] }
	}
	return m
}

func TestConfigFingerprintMatchesFmtRendering(t *testing.T) {
	check := func(name string, c Config) {
		t.Helper()
		if got, want := c.Fingerprint(), fmtFingerprint(&c); got != want {
			t.Errorf("%s: Fingerprint %s, fmt rendering %s (config %+v)", name, got, want, c)
		}
	}
	for name, variant := range fingerprintMachines() {
		for d := MinSimDepth; d <= MaxSimDepth; d++ {
			c, err := DefaultConfig(d)
			if err != nil {
				t.Fatal(err)
			}
			variant(&c)
			check(fmt.Sprintf("%s depth %d", name, d), c)
		}
	}

	base, err := DefaultConfig(10)
	if err != nil {
		t.Fatal(err)
	}
	edges := map[string]func(*Config){
		"depth 1": func(c *Config) {
			c.Plan = DepthPlan{Depth: 1, Decode: 1, Cache: 1,
				MergeGroups: [][]Unit{{UnitDecode, UnitAgen, UnitCache, UnitExec}}}
		},
		"zero config": func(c *Config) { *c = Config{} },
		"zeroed models": func(c *Config) {
			c.Predictor, c.BTB, c.Hierarchy, c.ICache = branch.PredictorConfig{}, branch.BTBConfig{}, cache.HierarchyConfig{}, cache.Config{}
		},
		"static predictor":    func(c *Config) { c.Predictor = branch.PredictorConfig{Kind: branch.KindStatic} },
		"kind without bits":   func(c *Config) { c.Predictor = branch.PredictorConfig{Kind: branch.KindGShare} },
		"bits without kind":   func(c *Config) { c.Predictor = branch.PredictorConfig{Bits: 3} },
		"nil merge groups":    func(c *Config) { c.Plan.MergeGroups = nil },
		"empty merge groups":  func(c *Config) { c.Plan.MergeGroups = [][]Unit{} },
		"empty merge group":   func(c *Config) { c.Plan.MergeGroups = [][]Unit{{}, nil, {UnitFPU}} },
		"out-of-range units":  func(c *Config) { c.Plan.MergeGroups = [][]Unit{{Unit(NumUnits), Unit(-1)}, {UnitRetire}} },
		"negative ints":       func(c *Config) { c.Width, c.Plan.Exec, c.BTBMissBubbles, c.Hierarchy.L1.Ways = -1, -7, math.MinInt, -3 },
		"max uints":           func(c *Config) { c.SampleInterval, c.MaxCycles = math.MaxUint64, 1 },
		"negative zero":       func(c *Config) { c.TP, c.TO, c.Hierarchy.L2LatencyFO4 = math.Copysign(0, -1), 0, math.Copysign(0, -1) },
		"nan":                 func(c *Config) { c.TO, c.Hierarchy.MemLatencyFO4 = math.NaN(), math.NaN() },
		"infinities":          func(c *Config) { c.TP, c.TO = math.Inf(1), math.Inf(-1) },
		"large and tiny":      func(c *Config) { c.TP, c.TO, c.Hierarchy.L2LatencyFO4 = 1e21, 1e-7, 123456789.125 },
		"icache edge floats":  func(c *Config) { c.ICache, c.ICacheMissFO4 = cache.Config{Ways: 1}, math.Inf(1) },
		"icache zero miss":    func(c *Config) { c.ICache, c.ICacheMissFO4 = cache.Config{SizeBytes: 1, LineBytes: 2, Ways: 3}, 0 },
		"miss without icache": func(c *Config) { c.ICache, c.ICacheMissFO4 = cache.Config{}, 90 },
		"hierarchy prefetch":  func(c *Config) { c.Hierarchy = cache.HierarchyConfig{PrefetchDegree: 9} },
		"every flag": func(c *Config) {
			c.OutOfOrder, c.NonBlockingCache, c.RedirectBubble, c.WrongPathActivity = true, true, true, true
		},
		"observers": func(c *Config) { c.Tracer, c.Engine = NewTracer(16), EnginePerCycle },
	}
	for name, edit := range edges {
		c := base
		edit(&c)
		check(name, c)
	}
}

func TestConfigFingerprintAllocatesOnce(t *testing.T) {
	c, err := DefaultConfig(10)
	if err != nil {
		t.Fatal(err)
	}
	c.ICache = cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}
	if allocs := testing.AllocsPerRun(100, func() { c.Fingerprint() }); allocs != 1 {
		t.Errorf("Config.Fingerprint allocates %v times per call, want 1 (its hex string)", allocs)
	}
}

func BenchmarkConfigFingerprint(b *testing.B) {
	c, err := DefaultConfig(10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Fingerprint()
	}
}
