package pipeline

import "testing"

func TestPlanDepthRange(t *testing.T) {
	if _, err := PlanDepth(1); err == nil {
		t.Error("depth 1 accepted")
	}
	if _, err := PlanDepth(MaxSimDepth + 1); err == nil {
		t.Error("over-max depth accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPlanDepth did not panic")
		}
	}()
	MustPlanDepth(0)
}

func TestPlanDepthSumsAndFloors(t *testing.T) {
	for d := MinSimDepth; d <= MaxSimDepth; d++ {
		p := MustPlanDepth(d)
		if p.Total() != d {
			t.Errorf("depth %d: stages sum to %d", d, p.Total())
		}
		if p.Decode < 1 || p.Cache < 1 {
			t.Errorf("depth %d: decode/cache below floor: %+v", d, p)
		}
		if d >= 4 && (p.Agen < 1 || p.Exec < 1) {
			t.Errorf("depth %d: agen/exec below floor: %+v", d, p)
		}
	}
}

func TestPlanDepthMonotone(t *testing.T) {
	// No unit shrinks as the pipeline deepens.
	prev := MustPlanDepth(4)
	for d := 5; d <= MaxSimDepth; d++ {
		p := MustPlanDepth(d)
		if p.Decode < prev.Decode || p.Agen < prev.Agen ||
			p.Cache < prev.Cache || p.Exec < prev.Exec {
			t.Errorf("depth %d shrank a unit: %+v after %+v", d, p, prev)
		}
		prev = p
	}
}

func TestPlanDepthPaperSplit(t *testing.T) {
	// At depth 20 the split is decode 8 / agen 2 / cache 6 / exec 4.
	p := MustPlanDepth(20)
	if p.Decode != 8 || p.Agen != 2 || p.Cache != 6 || p.Exec != 4 {
		t.Errorf("depth 20 split = %+v", p)
	}
}

func TestPlanDepthMerges(t *testing.T) {
	p2 := MustPlanDepth(2)
	if len(p2.MergeGroups) != 2 {
		t.Fatalf("depth 2 merge groups = %v", p2.MergeGroups)
	}
	if got := p2.MergedWith(UnitDecode); len(got) != 1 || got[0] != UnitAgen {
		t.Errorf("depth 2 decode merged with %v", got)
	}
	if got := p2.MergedWith(UnitExec); len(got) != 1 || got[0] != UnitCache {
		t.Errorf("depth 2 exec merged with %v", got)
	}
	p3 := MustPlanDepth(3)
	if got := p3.MergedWith(UnitAgen); len(got) != 1 || got[0] != UnitCache {
		t.Errorf("depth 3 agen merged with %v", got)
	}
	if got := p3.MergedWith(UnitDecode); got != nil {
		t.Errorf("depth 3 decode merged with %v", got)
	}
	p10 := MustPlanDepth(10)
	if len(p10.MergeGroups) != 0 {
		t.Errorf("depth 10 has merges: %v", p10.MergeGroups)
	}
}

func TestUnitStages(t *testing.T) {
	p := MustPlanDepth(20)
	if p.UnitStages(UnitDecode) != 8 || p.UnitStages(UnitExec) != 4 {
		t.Error("UnitStages mismatch with plan")
	}
	if p.UnitStages(UnitFetch) != 1 || p.UnitStages(UnitRetire) != 1 {
		t.Error("bookend units must report 1 stage")
	}
	if p.UnitStages(UnitFPU) != 4 {
		t.Errorf("FPU stages = %d, want exec's 4", p.UnitStages(UnitFPU))
	}
}

func TestUnitString(t *testing.T) {
	names := map[Unit]string{
		UnitFetch: "fetch", UnitDecode: "decode", UnitAgenQ: "agenq",
		UnitAgen: "agen", UnitCache: "cache", UnitExecQ: "execq",
		UnitExec: "exec", UnitFPU: "fpu", UnitRetire: "retire",
	}
	for u, want := range names {
		if u.String() != want {
			t.Errorf("%d.String() = %q", u, u.String())
		}
	}
	if Unit(99).String() == "" {
		t.Error("unknown unit empty name")
	}
}

func TestConfigValidate(t *testing.T) {
	good := MustDefaultConfig(10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mods := []func(*Config){
		func(c *Config) { c.Width = 0 },
		func(c *Config) { c.AgenWidth = 0 },
		func(c *Config) { c.AgenQCap = 0 },
		func(c *Config) { c.WindowCap = 4 },
		func(c *Config) { c.TP = 0 },
		func(c *Config) { c.Plan.Exec++ },
	}
	for i, mod := range mods {
		c := MustDefaultConfig(10)
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mod %d accepted", i)
		}
	}
	if _, err := DefaultConfig(1); err == nil {
		t.Error("DefaultConfig(1) accepted")
	}
}

func TestLatencyCycles(t *testing.T) {
	c := MustDefaultConfig(10) // ts = 16.5 FO4
	if got := c.CycleTime(); got != 16.5 {
		t.Fatalf("cycle time = %g", got)
	}
	cases := []struct {
		fo4  float64
		want uint64
	}{
		{0, 0},
		{1, 1},
		{16.5, 1},
		{16.6, 2},
		{700, 43}, // 700/16.5 = 42.42
	}
	for _, tc := range cases {
		if got := c.LatencyCycles(tc.fo4); got != tc.want {
			t.Errorf("LatencyCycles(%g) = %d, want %d", tc.fo4, got, tc.want)
		}
	}
}

func TestPresets(t *testing.T) {
	names := Presets()
	if len(names) != 4 {
		t.Fatalf("presets = %v", names)
	}
	for _, n := range names {
		cfg, err := PresetConfig(Preset(n), 12)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", n, err)
		}
	}
	if _, err := PresetConfig("cray", 12); err == nil {
		t.Error("unknown preset accepted")
	}
	// Distinguishing features.
	narrow, _ := PresetConfig(PresetNarrow, 12)
	wide, _ := PresetConfig(PresetWide, 12)
	if narrow.Width != 2 || wide.Width != 8 || !wide.OutOfOrder || narrow.OutOfOrder {
		t.Error("preset geometry wrong")
	}
}
