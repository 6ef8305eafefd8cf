package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenManifest is a fixed manifest for exporter goldens: every field
// set, so the metadata and manifest-line encodings are pinned in full.
func goldenManifest() telemetry.Manifest {
	return telemetry.Manifest{
		Tool:        "golden",
		ConfigHash:  "0123456789abcdef",
		Params:      map[string]string{"workload": "si95-gcc", "depth": "10", "seed": "0x2a"},
		StartedAt:   "2003-12-03T00:00:00Z",
		WallTimeSec: 1.25,
		GoVersion:   "go1.22",
		OS:          "linux",
		Arch:        "amd64",
		NumCPU:      4,
	}
}

// TestGoldenTraceExport pins the cycle tracer's two export formats
// byte for byte on a fixed traced run: si95-gcc at depth 10, 2000
// instructions, into a ring small enough to wrap, so the export starts
// mid-run from the oldest surviving event.
func TestGoldenTraceExport(t *testing.T) {
	prof, ok := workload.ByName("si95-gcc")
	if !ok {
		t.Fatal("workload si95-gcc missing")
	}
	cfg, err := DefaultConfig(10)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(512)
	cfg.Tracer = tr
	if _, err := Run(cfg, trace.NewLimitStream(workload.MustGenerator(prof), 2000)); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() == 0 {
		t.Fatal("ring never wrapped; shrink its capacity")
	}
	man := goldenManifest()
	for _, tc := range []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"export_si95-gcc_d10.chrome.json", func(b *bytes.Buffer) error { return tr.WriteChromeTrace(b, &man) }},
		{"export_si95-gcc_d10.jsonl", func(b *bytes.Buffer) error { return tr.WriteJSONL(b, &man) }},
	} {
		var got bytes.Buffer
		if err := tc.write(&got); err != nil {
			t.Fatal(err)
		}
		checkGoldenBytes(t, filepath.Join("testdata", "golden", tc.file), got.Bytes())
	}
}

// checkGoldenBytes compares got with the golden file at path (or
// rewrites it under -update), reporting the first differing byte.
func checkGoldenBytes(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if bytes.Equal(want, got) {
		return
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := max(i-60, 0)
	t.Errorf("%s differs at byte %d (len want %d, got %d):\n  want: …%s\n  got:  …%s",
		path, i, len(want), len(got), want[lo:min(i+60, len(want))], got[lo:min(i+60, len(got))])
}
