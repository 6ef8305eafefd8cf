package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestPhaseFrom(t *testing.T) {
	var h telemetry.Histogram
	if p := PhaseFrom(&h); p != (Phase{}) {
		t.Errorf("empty histogram phase = %+v, want zero", p)
	}
	h.Observe(100)
	h.Observe(300)
	p := PhaseFrom(&h)
	if p.Count != 2 || p.MeanUS != 200 {
		t.Errorf("phase = %+v, want count 2 mean 200", p)
	}
	if p.P50US > p.P95US || p.P95US > p.MaxUS {
		t.Errorf("phase quantiles not monotone: %+v", p)
	}
	if p.MaxUS != 300 {
		t.Errorf("max = %g, want 300", p.MaxUS)
	}
}

func TestPhaseFromEdgeCases(t *testing.T) {
	// Single observation: every quantile is that observation.
	var single telemetry.Histogram
	single.Observe(250)
	p := PhaseFrom(&single)
	if p.Count != 1 || p.P50US != 250 || p.P95US != 250 || p.P99US != 250 || p.MaxUS != 250 {
		t.Errorf("single-observation phase = %+v, want all quantiles 250", p)
	}
	// All-equal observations: quantiles collapse, count is preserved.
	var equal telemetry.Histogram
	equal.ObserveN(70, 500)
	p = PhaseFrom(&equal)
	if p.Count != 500 || p.P50US != 70 || p.P99US != 70 || p.MaxUS != 70 || p.MeanUS != 70 {
		t.Errorf("all-equal phase = %+v, want 500×70", p)
	}
}

func TestLoadRoundTripsAndTolerateMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	// Missing file: empty trajectory, no error.
	recs, err := Load(path)
	if err != nil || recs != nil {
		t.Fatalf("Load(missing) = %v, %v", recs, err)
	}
	start := time.Now().Add(-time.Second)
	rec := NewRecord("sweep", start)
	rec.Points = 5
	rec.Phases = map[string]Phase{"point": {Count: 5, P50US: 100, P95US: 200, P99US: 250, MaxUS: 300}}
	rec.Finish(start)
	if err := Append(path, rec); err != nil {
		t.Fatal(err)
	}
	recs, err = Load(path)
	if err != nil || len(recs) != 1 {
		t.Fatalf("Load = %d records, %v", len(recs), err)
	}
	if got := recs[0].Phases["point"]; got != rec.Phases["point"] {
		t.Errorf("phase round trip: %+v != %+v", got, rec.Phases["point"])
	}
	// Corruption is an error, not a skip.
	if err := os.WriteFile(path, []byte("{bad\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load(corrupt) did not error")
	}
}

func TestAppendAccumulatesRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	start := time.Now().Add(-2 * time.Second)
	for i := 0; i < 2; i++ {
		rec := NewRecord("sweep", start)
		rec.Workload = "si95-gcc"
		rec.Points = 24
		rec.CacheHits, rec.CacheMisses, rec.CacheHitRate = 20, 4, 20.0/24
		rec.Finish(start)
		if err := Append(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range splitLines(data) {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v", lines+1, err)
		}
		if rec.Tool != "sweep" || rec.Points != 24 {
			t.Errorf("record = %+v", rec)
		}
		if rec.WallSec <= 0 || rec.PointsPerSec <= 0 {
			t.Errorf("throughput not derived: wall=%g pps=%g", rec.WallSec, rec.PointsPerSec)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("file holds %d records, want 2", lines)
	}
}

func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				out = append(out, data[start:i])
			}
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}

// TestMeasuredZeroIsWritten pins the distinction between a figure
// measured as zero (written) and one not measured (omitted).
func TestMeasuredZeroIsWritten(t *testing.T) {
	rec := NewRecord("allocguard", time.Now())
	rec.AllocsPerCycle = Ptr(0.0)
	rec.Violations = Ptr(uint64(0))
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"allocs_per_cycle":0`, `"violations":0`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("measured zero %s missing from %s", want, raw)
		}
	}
	for _, absent := range []string{"allocs_per_eval", "checks_failed", "invariant_overhead_frac"} {
		if strings.Contains(string(raw), absent) {
			t.Errorf("unmeasured %s written: %s", absent, raw)
		}
	}
}
