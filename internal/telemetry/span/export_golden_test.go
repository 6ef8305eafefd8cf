package span

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden export files with current output")

// goldenTracer holds a fixed set of completed spans (span timings are
// wall-clock, so a live tracer cannot be pinned): two workload lanes,
// one with a nested point, fractional microsecond timings, and an
// orphan whose parent was never recorded.
func goldenTracer() *Tracer {
	tr := NewTracer(nil, 0)
	for _, r := range []Record{
		{ID: 1, Name: "study", StartNS: 0, DurNS: 9_000_500},
		{ID: 2, Parent: 1, Name: "workload", Attrs: []Attr{String("workload", "si95-gcc")}, StartNS: 1_500, DurNS: 4_000_000},
		{ID: 3, Parent: 2, Name: "point", Attrs: []Attr{Int("depth", 10), String("cache", "miss")}, StartNS: 2_250, DurNS: 3_999_001},
		{ID: 4, Name: "workload", Attrs: []Attr{String("workload", "sf-swim")}, StartNS: 1_500, DurNS: 7},
		{ID: 6, Parent: 5, Name: "simulate", StartNS: 12_345_678, DurNS: 1_000},
	} {
		tr.add(r)
	}
	return tr
}

// TestGoldenSpanExport pins both span export formats byte for byte.
func TestGoldenSpanExport(t *testing.T) {
	tr := goldenTracer()
	man := telemetry.Manifest{
		Tool:        "golden",
		ConfigHash:  "0123456789abcdef",
		Params:      map[string]string{"workloads": "2"},
		StartedAt:   "2003-12-03T00:00:00Z",
		WallTimeSec: 0.5,
		GoVersion:   "go1.22",
		OS:          "linux",
		Arch:        "amd64",
		NumCPU:      2,
	}
	for _, tc := range []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"spans.chrome.json", func(b *bytes.Buffer) error { return tr.WriteChromeTrace(b, &man) }},
		{"spans.jsonl", func(b *bytes.Buffer) error { return tr.WriteJSONL(b, &man) }},
	} {
		var got bytes.Buffer
		if err := tc.write(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden", tc.file)
		if *updateGolden {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if !bytes.Equal(want, got.Bytes()) {
			t.Errorf("%s differs (run with -update after intentional changes):\nwant:\n%s\ngot:\n%s",
				path, want, got.Bytes())
		}
	}
}
