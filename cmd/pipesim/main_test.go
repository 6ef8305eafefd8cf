package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestMachineConfigHashGolden pins the ConfigHash of every machine
// pipesim's -machine and -predictor flags build, at depths 2–25, so a
// refactor of pipeline.Config cannot silently re-key them.
func TestMachineConfigHashGolden(t *testing.T) {
	var b strings.Builder
	for _, m := range pipeline.Presets() {
		for _, pred := range []string{"static", "bimodal", "gshare", "tournament"} {
			for d := pipeline.MinSimDepth; d <= 25; d++ {
				cfg, err := machineConfig(m, pred, d)
				if err != nil {
					t.Fatalf("%s/%s depth %d: %v", m, pred, d, err)
				}
				fmt.Fprintf(&b, "%s\t%s\t%d\t%s\n", m, pred, d, cfg.Fingerprint())
			}
		}
	}
	path := filepath.Join("testdata", "config_hashes.txt")
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

func TestMachineConfigRejectsUnknownPredictor(t *testing.T) {
	if _, err := machineConfig("zseries", "oracle", 10); err == nil {
		t.Fatal("unknown predictor accepted")
	}
}

// TestStdoutGolden pins pipesim's report for the default run and three
// flag variants (out-of-order, gshare, no warm-up), so a change to how
// the simulator drives its models cannot silently move a printed figure.
func TestStdoutGolden(t *testing.T) {
	var b strings.Builder
	for _, args := range [][]string{{}, {"-ooo"}, {"-predictor", "gshare"}, {"-warmup", "0"}} {
		fmt.Fprintf(&b, "== pipesim %s\n", strings.Join(args, " "))
		var stderr strings.Builder
		if code := run(args, &b, &stderr); code != 0 {
			t.Fatalf("pipesim %v: exit %d\n%s", args, code, stderr.String())
		}
	}
	path := filepath.Join("testdata", "stdout.txt")
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
		t.Fatalf("stdout drifted from %s:\n%s", path, got)
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errBuf); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestManifestHashTracksConfig reads the manifest line of -metrics-out:
// its config_hash is the simulated machine's fingerprint, equal for
// identical runs and different across depths, and its params describe
// the machine's shape.
func TestManifestHashTracksConfig(t *testing.T) {
	manifest := func(args ...string) telemetry.Manifest {
		t.Helper()
		path := filepath.Join(t.TempDir(), "m.jsonl")
		args = append([]string{"-n", "500", "-warmup", "0", "-metrics-out", path}, args...)
		var out, stderr strings.Builder
		if code := run(args, &out, &stderr); code != 0 {
			t.Fatalf("pipesim %v: exit %d\n%s", args, code, stderr.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(string(raw), "\n")
		var m telemetry.Manifest
		if err := json.Unmarshal([]byte(first), &m); err != nil {
			t.Fatalf("manifest line %q: %v", first, err)
		}
		return m
	}
	a, b := manifest("-depth", "10"), manifest("-depth", "10")
	cfg, err := machineConfig("zseries", "tournament", 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.ConfigHash != cfg.Fingerprint() || b.ConfigHash != a.ConfigHash {
		t.Errorf("config_hash %s and %s, want the machine's %s", a.ConfigHash, b.ConfigHash, cfg.Fingerprint())
	}
	if c := manifest("-depth", "20"); c.ConfigHash == a.ConfigHash {
		t.Error("different depths share a config hash")
	}
	want := map[string]string{"depth": "10", "width": "4", "cycle_time_fo4": "16.500", "workload": "si95-gcc"}
	for k, v := range want {
		if a.Params[k] != v {
			t.Errorf("param %s = %q, want %q", k, a.Params[k], v)
		}
	}
	if a.Tool != "pipesim" || a.GoVersion == "" || a.WallTimeSec <= 0 {
		t.Errorf("manifest environment not stamped: %+v", a)
	}
	if o := manifest("-ooo"); o.Params["ooo"] != "true" {
		t.Errorf("-ooo run: ooo param %q, want true", o.Params["ooo"])
	}
}
