package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fastArgs keeps CLI tests quick: few depths, short seeded runs.
func fastArgs(extra ...string) []string {
	args := []string{
		"-workload", "si95-gcc",
		"-min", "4", "-max", "8",
		"-n", "2000", "-warmup", "-1",
	}
	return append(args, extra...)
}

func runCLI(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestRunSucceeds(t *testing.T) {
	code, stdout, stderr := runCLI(t, fastArgs())
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "workload si95-gcc") {
		t.Fatalf("missing header in output:\n%s", stdout)
	}
	if !strings.Contains(stdout, "optimum") {
		t.Fatalf("missing optimum lines in output:\n%s", stdout)
	}
}

func TestRunUnknownWorkloadExitsNonZero(t *testing.T) {
	code, _, stderr := runCLI(t, []string{"-workload", "no-such-workload"})
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "unknown workload") {
		t.Fatalf("stderr missing diagnosis:\n%s", stderr)
	}
}

func TestRunBadFlagExitsTwo(t *testing.T) {
	code, _, _ := runCLI(t, []string{"-definitely-not-a-flag"})
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestRunWarmCacheByteIdentical runs the same sweep twice against one
// cache directory: the second run must serve every design point from
// the cache and print byte-identical results.
func TestRunWarmCacheByteIdentical(t *testing.T) {
	dir := t.TempDir()
	args := fastArgs("-cache-dir", dir)

	code, out1, err1 := runCLI(t, args)
	if code != 0 {
		t.Fatalf("cold run exit %d, stderr:\n%s", code, err1)
	}
	if !strings.Contains(err1, "hits=0 misses=5") {
		t.Fatalf("cold run cache summary unexpected:\n%s", err1)
	}

	code, out2, err2 := runCLI(t, args)
	if code != 0 {
		t.Fatalf("warm run exit %d, stderr:\n%s", code, err2)
	}
	if out1 != out2 {
		t.Fatalf("warm-cache output differs from cold run:\n--- cold ---\n%s\n--- warm ---\n%s", out1, out2)
	}
	if !strings.Contains(err2, "hits=5 misses=0") || !strings.Contains(err2, "hit_rate=100%") {
		t.Fatalf("warm run cache summary unexpected:\n%s", err2)
	}
}

// TestRunProfileDir is the cost-attribution acceptance check: one
// -profile-dir run must leave pprof captures and a span trace whose
// intervals are consistent. Every span lies inside its parent (within
// clock tolerance). Each point's phases run one after another, so they
// also sum to no more than the point span itself; the points under the
// workload span run concurrently, so their durations may sum past it.
func TestRunProfileDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prof")
	code, _, stderr := runCLI(t, fastArgs("-profile-dir", dir))
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof", "allocs.pprof", "spans.jsonl", "spans_trace.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact: %v", err)
		}
	}

	data, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		Type    string  `json:"type"`
		ID      uint64  `json:"id"`
		Parent  uint64  `json:"parent"`
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		DurUS   float64 `json:"dur_us"`
	}
	var spans []line
	for i, raw := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if i == 0 {
			if l.Type != "manifest" {
				t.Fatalf("first line type %q, want manifest", l.Type)
			}
			continue
		}
		spans = append(spans, l)
	}
	const tolUS = 2000 // monotonic-clock and bookkeeping tolerance
	byID := map[uint64]line{}
	kidSums := map[uint64]float64{}
	var points, fits int
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if parent, ok := byID[s.Parent]; ok {
			if parent.Name == "point" {
				kidSums[s.Parent] += s.DurUS
			}
			if s.StartUS < parent.StartUS-tolUS ||
				s.StartUS+s.DurUS > parent.StartUS+parent.DurUS+tolUS {
				t.Errorf("span %s#%d [%.0f, %.0f]µs outside parent %s#%d [%.0f, %.0f]µs",
					s.Name, s.ID, s.StartUS, s.StartUS+s.DurUS,
					parent.Name, parent.ID, parent.StartUS, parent.StartUS+parent.DurUS)
			}
		}
		switch s.Name {
		case "point":
			points++
		case "fit":
			fits++
		}
	}
	if points != 5 || fits != 1 { // depths 4..8 from fastArgs
		t.Fatalf("span census: %d points, %d fits (want 5, 1)", points, fits)
	}
	for id, sum := range kidSums {
		if parent := byID[id]; sum > parent.DurUS+tolUS {
			t.Errorf("span %s#%d: children sum to %.0fµs, span only %.0fµs",
				parent.Name, id, sum, parent.DurUS)
		}
	}
}

// TestRunCacheReadonlyAndClear: -cache-readonly must not populate the
// cache; -cache-clear must force re-simulation.
func TestRunCacheReadonlyAndClear(t *testing.T) {
	dir := t.TempDir()

	_, _, stderr := runCLI(t, fastArgs("-cache-dir", dir, "-cache-readonly"))
	if !strings.Contains(stderr, "stored=0") {
		t.Fatalf("readonly run stored entries:\n%s", stderr)
	}

	// Populate, then clear: the cleared run must miss everything again.
	if code, _, _ := runCLI(t, fastArgs("-cache-dir", dir)); code != 0 {
		t.Fatal("populate run failed")
	}
	_, _, stderr = runCLI(t, fastArgs("-cache-dir", dir, "-cache-clear"))
	if !strings.Contains(stderr, "hits=0 misses=5") {
		t.Fatalf("cleared cache still produced hits:\n%s", stderr)
	}
}

// TestRunSharedSpecValidation drives the flag combinations that the
// shared study-spec rules (internal/serve/spec — the same validation
// depthd applies to submitted studies) must reject.
func TestRunSharedSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"depth below simulable range", []string{"-workload", "si95-gcc", "-min", "1", "-max", "8"}, "depth"},
		{"depth above simulable range", []string{"-workload", "si95-gcc", "-min", "4", "-max", "99"}, "depth"},
		{"inverted depth range", []string{"-workload", "si95-gcc", "-min", "20", "-max", "4"}, "depth"},
		{"unknown machine preset", []string{"-workload", "si95-gcc", "-machine", "quantum"}, "machine"},
		{"instructions beyond trace cap", []string{"-workload", "si95-gcc", "-n", "6000000"}, "instructions"},
		{"bad warmup", []string{"-workload", "si95-gcc", "-warmup", "-7"}, "warmup"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args)
			if code != 1 {
				t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
			}
			if tc.want != "" && !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr missing %q:\n%s", tc.want, stderr)
			}
		})
	}
}
