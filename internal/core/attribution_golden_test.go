package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestGoldenUnitAttribution pins the per-unit energy attribution of one
// design point (si95-gcc at depth 10) to a golden file: a depth-8 point
// runs first into the same registry, and the snapshot delta must
// isolate exactly the depth-10 contribution.
func TestGoldenUnitAttribution(t *testing.T) {
	prof, ok := workload.ByName("si95-gcc")
	if !ok {
		t.Fatal("workload si95-gcc missing")
	}
	reg := telemetry.NewRegistry()
	cfg := StudyConfig{Instructions: 3000, Warmup: -1, Metrics: reg}

	cfg.Depths = []int{8}
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()

	cfg.Depths = []int{10}
	if _, err := RunSweep(cfg, prof); err != nil {
		t.Fatal(err)
	}
	diff := changedMetrics(before, reg.Snapshot())

	// Only the power attribution series are pinned: they are fully
	// deterministic (seeded workload, fixed power model), unlike the
	// wall-clock histograms that share the registry.
	var b strings.Builder
	for _, m := range diff {
		fam, _ := telemetry.SplitLabels(m.Name)
		if !strings.HasPrefix(fam, "power_unit_") && fam != "power_total_watts" {
			continue
		}
		fmt.Fprintf(&b, "%s %.6g\n", m.Name, m.Value)
	}
	got := b.String()

	// Every series in the diff must belong to the depth-10 point; the
	// depth-8 gauges did not change and may not leak through.
	if strings.Contains(got, `depth="8"`) {
		t.Fatalf("diff leaked the prior point's series:\n%s", got)
	}
	if !strings.Contains(got, `depth="10"`) {
		t.Fatalf("diff holds no depth-10 attribution:\n%s", got)
	}
	for _, series := range []string{
		`power_unit_energy_joules{component="dynamic",depth="10",mode="gated",unit="fetch"}`,
		`power_unit_power_watts{component="leakage",depth="10",mode="plain",unit="exec"}`,
		`power_total_watts{depth="10",mode="gated"}`,
	} {
		if !strings.Contains(got, series) {
			t.Errorf("attribution missing series %s:\n%s", series, got)
		}
	}

	path := filepath.Join("testdata", "golden", "attribution_si95-gcc_d10.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("attribution differs from %s (run with -update after intentional changes)\n got:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// changedMetrics returns the counters and gauges of after that are new
// or changed since before, counters as their delta.
func changedMetrics(before, after []telemetry.Metric) []telemetry.Metric {
	prev := make(map[string]telemetry.Metric, len(before))
	for _, m := range before {
		prev[m.Type+" "+m.Name] = m
	}
	var out []telemetry.Metric
	for _, m := range after {
		old, seen := prev[m.Type+" "+m.Name]
		switch {
		case m.Type == "counter" && m.Value != old.Value:
			m.Value -= old.Value
			out = append(out, m)
		case m.Type == "gauge" && (!seen || m.Value != old.Value):
			out = append(out, m)
		}
	}
	return out
}
