package pipeline

import (
	"fmt"
	"sort"

	"repro/internal/branch"
)

// Machine presets. The companion performance-only study (Hartstein &
// Puzak, ISCA 2002) validated the same analytic framework across four
// different microarchitectures; these presets provide a comparable
// spread of machines for cross-machine studies on this simulator.

// Preset names a machine configuration family.
type Preset string

// The available machine presets.
const (
	// PresetZSeries is the paper's machine: 4-issue, in-order,
	// tournament prediction, blocking L1.
	PresetZSeries Preset = "zseries"
	// PresetZSeriesOOO is the same machine with register renaming and
	// out-of-order issue.
	PresetZSeriesOOO Preset = "zseries-ooo"
	// PresetNarrow is a 2-issue embedded-class machine with a bimodal
	// predictor and a small BTB.
	PresetNarrow Preset = "narrow"
	// PresetWide is an aggressive 8-issue out-of-order machine with
	// non-blocking caches and deeper queues.
	PresetWide Preset = "wide"
)

// Presets lists the preset names in stable order.
func Presets() []string {
	names := []string{
		string(PresetZSeries), string(PresetZSeriesOOO),
		string(PresetNarrow), string(PresetWide),
	}
	sort.Strings(names)
	return names
}

// PresetConfig builds the named machine at the given depth.
func PresetConfig(preset Preset, depth int) (Config, error) {
	cfg, err := DefaultConfig(depth)
	if err != nil {
		return cfg, err
	}
	switch preset {
	case PresetZSeries:
		// The baseline.
	case PresetZSeriesOOO:
		cfg.OutOfOrder = true
	case PresetNarrow:
		cfg.Width = 2
		cfg.AgenWidth = 1
		cfg.CachePorts = 1
		cfg.AgenQCap = 4
		cfg.ExecQCap = 8
		cfg.Predictor = branch.PredictorConfig{Kind: branch.KindBimodal, Bits: 10}
		cfg.BTB = branch.BTBConfig{Entries: 128, Ways: 2}
	case PresetWide:
		cfg.Width = 8
		cfg.AgenWidth = 4
		cfg.CachePorts = 4
		cfg.BranchWidth = 2
		cfg.AgenQCap = 16
		cfg.ExecQCap = 48
		cfg.OutOfOrder = true
		cfg.NonBlockingCache = true
		cfg.Hierarchy.PrefetchDegree = 4
		cfg.BTB = branch.BTBConfig{Entries: 2048, Ways: 4}
	default:
		return Config{}, fmt.Errorf("pipeline: unknown preset %q (have %v)", preset, Presets())
	}
	return cfg, nil
}
