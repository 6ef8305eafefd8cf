package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden export files with current output")

// TestGoldenRegistryJSONL pins Registry.WriteJSONL byte for byte: a
// fixed manifest line, then every metric type, labeled names and
// fractional gauges in Snapshot order.
func TestGoldenRegistryJSONL(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.cycles").Add(123456)
	r.Counter(LabelName("serve_requests_total", "route", "submit", "code", "202")).Add(7)
	r.Gauge("power.total").Set(12.375)
	r.Gauge(LabelName("power_unit_power_watts", "unit", "fetch", "depth", "10")).Set(1e-7)
	r.Gauge("sim.ipc").Set(0.1)
	h := r.Histogram("span.point_us")
	for _, v := range []uint64{0, 1, 3, 900, 1 << 20} {
		h.Observe(v)
	}
	man := Manifest{
		Tool:        "golden",
		ConfigHash:  "0123456789abcdef",
		Params:      map[string]string{"workload": "si95-gcc", "depth": "10"},
		StartedAt:   "2003-12-03T00:00:00Z",
		WallTimeSec: 1.25,
		GoVersion:   "go1.22",
		OS:          "linux",
		Arch:        "amd64",
		NumCPU:      4,
	}
	var got bytes.Buffer
	if err := r.WriteJSONL(&got, &man); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "registry.jsonl")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Errorf("registry JSONL differs from %s (run with -update after intentional changes):\nwant:\n%s\ngot:\n%s",
			path, want, got.Bytes())
	}
}
