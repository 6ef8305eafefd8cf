package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// TestConfigHashGolden pins pipeline.Config.Fingerprint — the
// ConfigHash of every result-cache key — for each machine the study
// builds: the four presets and the abl-predictor, abl-prefetch and
// abl-memsys variants, at depths 2–25. A result cache written by an
// earlier build stays valid exactly while this file does, so a refactor
// of Config must pass it without -update.
func TestConfigHashGolden(t *testing.T) {
	type machine struct {
		name  string
		build func(depth int) (pipeline.Config, error)
	}
	var machines []machine
	for _, p := range pipeline.Presets() {
		p := pipeline.Preset(p)
		machines = append(machines, machine{"preset/" + string(p), func(d int) (pipeline.Config, error) {
			return pipeline.PresetConfig(p, d)
		}})
	}
	for _, kind := range predictorKinds {
		machines = append(machines, machine{"abl-predictor/" + string(kind), machineWith(predictorVariant(kind))})
	}
	for _, degree := range prefetchDegrees {
		machines = append(machines, machine{fmt.Sprintf("abl-prefetch/%d", degree), machineWith(prefetchVariant(degree))})
	}
	for _, v := range memSysVariants {
		build := pipeline.DefaultConfig
		if v.fn != nil {
			build = machineWith(v.fn)
		}
		machines = append(machines, machine{"abl-memsys/" + v.name, build})
	}

	var b strings.Builder
	for _, m := range machines {
		for d := pipeline.MinSimDepth; d <= 25; d++ {
			cfg, err := m.build(d)
			if err != nil {
				t.Fatalf("%s depth %d: %v", m.name, d, err)
			}
			fmt.Fprintf(&b, "%s\t%d\t%s\n", m.name, d, cfg.Fingerprint())
		}
	}
	path := filepath.Join("testdata", "golden", "config_hashes.txt")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("config hash drift at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("config hash golden has %d lines, got %d", len(wl), len(gl))
	}
}
