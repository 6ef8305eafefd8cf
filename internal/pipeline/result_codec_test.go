package pipeline

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// simulatedResult produces a Result with most counters populated: a
// real workload stream over a sampled run.
func simulatedResult(t *testing.T) *Result {
	t.Helper()
	prof := workload.All()[0]
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MustDefaultConfig(12)
	cfg.SampleInterval = 500
	r, err := Run(cfg, trace.NewLimitStream(gen, 4000))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestResultDataRoundTrip(t *testing.T) {
	r := simulatedResult(t)
	data := r.Data()

	// JSON round-trip must be lossless.
	raw, err := json.Marshal(data)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back ResultData
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(data, back) {
		t.Fatal("ResultData changed across JSON round-trip")
	}

	// Restore under the same config must reproduce the entire Result:
	// DeepEqual over the whole struct guards against future Result
	// fields being forgotten in the codec (a new nonzero field here
	// fails until Data/Restore carry it).
	restored := back.Restore(r.Config)
	restored.Traffic = r.Traffic // model traffic is not payload by design
	if !reflect.DeepEqual(restored, r) {
		t.Fatal("restored Result differs from original")
	}

	// Spot-check the derived figures the study layer consumes.
	if restored.BIPS() != r.BIPS() || restored.IPC() != r.IPC() ||
		restored.Gamma() != r.Gamma() || restored.HazardRate() != r.HazardRate() {
		t.Fatal("derived figures differ after restore")
	}
}

func TestResultDataIsIndependent(t *testing.T) {
	r := simulatedResult(t)
	data := r.Data()
	if len(r.IssueHist) == 0 || len(r.Samples) == 0 {
		t.Fatal("test run produced no histogram/samples")
	}
	r.IssueHist[0] += 99
	r.Samples[0].Retired += 99
	if data.IssueHist[0] == r.IssueHist[0] {
		t.Fatal("Data shares IssueHist storage with Result")
	}
	if data.Samples[0].Retired == r.Samples[0].Retired {
		t.Fatal("Data shares Samples storage with Result")
	}
}
