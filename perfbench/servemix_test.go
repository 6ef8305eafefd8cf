package main

import (
	"testing"
)

// TestServePassShort drives a short closed loop with concurrent clients
// against an in-process server (run it with -race) and requires every
// study and every verification check to pass.
func TestServePassShort(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server and simulates")
	}
	res, err := runServePass(passOpts{
		workload: "serve-mixed", seed: 3, parallelism: 2,
		seconds: 0.5, traced: true, tmp: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Check.Failed != 0 {
		t.Fatalf("%d of %d checks failed: %v", res.Check.Failed, res.Check.Attempted, res.Check.Failures)
	}
	if res.Studies == 0 || len(res.FreshMS) == 0 || res.Digest == "" {
		t.Fatalf("studies=%d fresh=%d digest=%q", res.Studies, len(res.FreshMS), res.Digest)
	}
	// Only server spans count as covered, so the client and the
	// transport outside the handlers must show as unattributed time.
	if u, tol := res.Layers["unattributed_frac"], unattributedTolerance("serve-mixed"); u <= 0 || u > tol {
		t.Errorf("unattributed_frac = %v, want within (0, %v]", u, tol)
	}
}
