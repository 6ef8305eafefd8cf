package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/difftest"
)

// fastArgs shrinks the matrix so every CLI test stays quick; the full
// default matrix runs in the CI gate.
func fastArgs(extra ...string) []string {
	args := []string{
		"-workloads", "si95-gcc,oltp-bank",
		"-depths", "4,8,12,18",
		"-n", "3000", "-warmup", "1500",
	}
	return append(args, extra...)
}

func runCLI(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestCleanRunExitsZero(t *testing.T) {
	code, stdout, stderr := runCLI(t, fastArgs())
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, frag := range []string{"invariants/run", "differential/cache", "differential/parallel",
		"differential/seed", "differential/codec", "theory/residual", "0 failed"} {
		if !strings.Contains(stdout, frag) {
			t.Errorf("summary missing %q:\n%s", frag, stdout)
		}
	}
}

// TestEveryMutationFlipsExitNonzero is the self-test acceptance
// criterion: for every injectable violation class, -mutate must flip
// the gate to a nonzero exit.
func TestEveryMutationFlipsExitNonzero(t *testing.T) {
	for _, mut := range difftest.Mutations() {
		mut := mut
		t.Run(string(mut), func(t *testing.T) {
			t.Parallel()
			code, stdout, stderr := runCLI(t, fastArgs("-mutate", string(mut)))
			if code == 0 {
				t.Fatalf("mutation %q exited 0\nstdout:\n%s\nstderr:\n%s", mut, stdout, stderr)
			}
			if code != 1 {
				t.Fatalf("mutation %q: exit = %d, want 1", mut, code)
			}
			if !strings.Contains(stdout, "FAIL") {
				t.Errorf("summary shows no failing check:\n%s", stdout)
			}
		})
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	if code, _, _ := runCLI(t, []string{"-definitely-not-a-flag"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestUnknownWorkloadExitsTwo(t *testing.T) {
	code, _, stderr := runCLI(t, []string{"-workloads", "no-such-workload"})
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown workload") {
		t.Fatalf("stderr missing diagnosis:\n%s", stderr)
	}
}

func TestBadDepthExitsTwo(t *testing.T) {
	if code, _, _ := runCLI(t, []string{"-depths", "4,banana"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestUnknownMutationExitsNonzero(t *testing.T) {
	code, _, stderr := runCLI(t, fastArgs("-mutate", "no-such-class"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "unknown mutation") {
		t.Fatalf("stderr missing diagnosis:\n%s", stderr)
	}
}

func TestListMutations(t *testing.T) {
	code, stdout, _ := runCLI(t, []string{"-list-mutations"})
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, m := range difftest.Mutations() {
		if !strings.Contains(stdout, string(m)) {
			t.Errorf("missing mutation %q in listing:\n%s", m, stdout)
		}
	}
}

func TestJSONReportOutputs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	code, stdout, stderr := runCLI(t, fastArgs("-json", "-out", path))
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	var fromStdout, fromFile difftest.Report
	if err := json.Unmarshal([]byte(stdout), &fromStdout); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &fromFile); err != nil {
		t.Fatalf("-out file is not a JSON report: %v", err)
	}
	if !fromStdout.OK || !fromFile.OK {
		t.Fatalf("reports not OK: stdout=%+v file=%+v", fromStdout.OK, fromFile.OK)
	}
	if len(fromStdout.Checks) == 0 || len(fromStdout.Checks) != len(fromFile.Checks) {
		t.Fatalf("check lists differ: %d vs %d", len(fromStdout.Checks), len(fromFile.Checks))
	}
}
