package pipeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestRunWithTracerRecordsLifecycleEvents(t *testing.T) {
	const n = 400
	cfg := idealConfig(10)
	tr := NewTracer(1 << 16)
	cfg.Tracer = tr
	r := mustRun(t, cfg, rrIndependent(n))

	var counts [telemetry.NumEventKinds]int
	for _, ev := range tr.Events() {
		counts[ev.Kind]++
	}
	// Every instruction is fetched, issued and retired exactly once.
	for _, k := range []telemetry.EventKind{
		telemetry.KindFetch, telemetry.KindIssue, telemetry.KindRetire,
	} {
		if counts[k] != n {
			t.Errorf("%s events = %d, want %d", k, counts[k], n)
		}
	}
	// Gate events fire on cycles where any unit switched; a running
	// pipeline switches on nearly every cycle.
	if g := counts[telemetry.KindGate]; uint64(g) > r.Cycles || g == 0 {
		t.Errorf("gate events = %d over %d cycles", g, r.Cycles)
	}
	// The retire stream must be in program order.
	var lastRetire uint64
	first := true
	for _, ev := range tr.Events() {
		if ev.Kind != telemetry.KindRetire {
			continue
		}
		if !first && ev.Arg <= lastRetire {
			t.Fatalf("retire seq %d after %d: out of order", ev.Arg, lastRetire)
		}
		lastRetire, first = ev.Arg, false
	}
}

func TestRunWithoutTracerRecordsNothing(t *testing.T) {
	cfg := idealConfig(10)
	// Config.Tracer nil is the disabled state; nothing to assert on a
	// tracer that does not exist, but the run must still succeed.
	if r := mustRun(t, cfg, rrIndependent(400)); r.Cycles == 0 {
		t.Fatal("empty run")
	}
}

func TestRunPublishesMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := mustRun(t, MustDefaultConfig(10), rrIndependent(1000))
	r.PublishMetrics(reg)

	checks := map[string]uint64{
		"pipeline.instructions": r.Instructions,
		"pipeline.cycles":       r.Cycles,
		"pipeline.issue_cycles": r.IssueCycles,
	}
	for name, want := range checks {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	var stalls uint64
	for c := 0; c < NumStallCauses; c++ {
		stalls += reg.Counter("pipeline.stall_cycles." + StallCause(c).String()).Value()
	}
	if stalls != r.TotalStallCycles() {
		t.Errorf("stall counters sum to %d, result says %d", stalls, r.TotalStallCycles())
	}
	// The attached hierarchy publishes its traffic counters too (zero
	// here — the RR-only workload touches no memory — but registered).
	published := false
	for _, m := range reg.Snapshot() {
		if m.Name == "cache.l1.accesses" {
			published = true
		}
	}
	if !published {
		t.Error("cache metrics not published")
	}
	// Counters aggregate across runs into the same registry.
	before := reg.Counter("pipeline.instructions").Value()
	mustRun(t, MustDefaultConfig(10), rrIndependent(500)).PublishMetrics(reg)
	if got := reg.Counter("pipeline.instructions").Value(); got != before+500 {
		t.Errorf("second run: instructions = %d, want %d", got, before+500)
	}
}

func TestTracerChromeExportFromRun(t *testing.T) {
	cfg := MustDefaultConfig(12)
	tr := NewTracer(1 << 14)
	cfg.Tracer = tr
	mustRun(t, cfg, rrIndependent(600))

	man := telemetry.NewManifest("test")
	man.ConfigHash = cfg.Fingerprint()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, &man); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Metadata    map[string]any   `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	if out.Metadata["config_hash"] != man.ConfigHash {
		t.Errorf("metadata config_hash = %v, want %s",
			out.Metadata["config_hash"], man.ConfigHash)
	}
	gates := 0
	for _, ev := range out.TraceEvents {
		if ev["ph"] == "C" {
			gates++
		}
	}
	if gates == 0 {
		t.Error("no clock-gate counter events in export")
	}
}

func TestTracerSamplingThinsEvents(t *testing.T) {
	full := NewTracer(1 << 16)
	cfgA := idealConfig(10)
	cfgA.Tracer = full
	mustRun(t, cfgA, rrIndependent(1000))

	thin := NewTracer(1 << 16)
	thin.SetSampling(8)
	cfgB := idealConfig(10)
	cfgB.Tracer = thin
	mustRun(t, cfgB, rrIndependent(1000))

	if thin.Len() == 0 || thin.Len() >= full.Len()/2 {
		t.Errorf("1-in-8 sampling kept %d of %d events", thin.Len(), full.Len())
	}
}

func TestSchemaNameTablesMatchSim(t *testing.T) {
	units := UnitNames()
	if len(units) != NumUnits {
		t.Fatalf("UnitNames: %d entries, want %d", len(units), NumUnits)
	}
	for _, u := range units {
		if u == "" || strings.HasPrefix(u, "Unit(") {
			t.Errorf("unit name %q not human-readable", u)
		}
	}
	causes := StallCauseNames()
	if len(causes) != NumStallCauses {
		t.Fatalf("StallCauseNames: %d entries, want %d", len(causes), NumStallCauses)
	}
}
