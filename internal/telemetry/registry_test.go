package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sim.cycles")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("sim.cycles") != c {
		t.Error("second lookup returned a different counter")
	}
	g := r.Gauge("power.total")
	g.Set(2.5)
	g.Add(0.5)
	if got := g.Value(); got != 3.0 {
		t.Errorf("gauge = %g, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1010 {
		t.Errorf("sum = %d", h.Sum())
	}
	if got := h.Mean(); got != 1010.0/6 {
		t.Errorf("mean = %g", got)
	}
	buckets, count, _, min, max := h.snapshot()
	if count != 6 || min != 0 || max != 1000 {
		t.Errorf("snapshot count=%d min=%d max=%d", count, min, max)
	}
	// 0 → "0"; 1 → "1"; 2,3 → "3"; 4 → "7"; 1000 → "1023".
	want := map[string]uint64{"0": 1, "1": 1, "3": 2, "7": 1, "1023": 1}
	for k, n := range want {
		if buckets[k] != n {
			t.Errorf("bucket[%s] = %d, want %d", k, buckets[k], n)
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h").Observe(uint64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestSnapshotSortedAndTyped(t *testing.T) {
	r := NewRegistry()
	r.Gauge("b").Set(1)
	r.Counter("z").Inc()
	r.Counter("a").Inc()
	r.Histogram("m").Observe(5)
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	// counters first (a, z), then gauges (b), then histograms (m).
	order := []string{"a", "z", "b", "m"}
	for i, want := range order {
		if snap[i].Name != want {
			t.Errorf("snap[%d] = %s, want %s", i, snap[i].Name, want)
		}
	}
}

func TestWriteJSONLWithManifest(t *testing.T) {
	r := NewRegistry()
	r.Counter("pipeline.instructions").Add(30000)
	m := NewManifest("test")
	m.SetParam("workload", "si95-gcc")
	m.ConfigHash = Fingerprint("cfg")
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, &m); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["type"] != "manifest" {
		t.Errorf("first line type = %v, want manifest", first["type"])
	}
	if first["go_version"] == "" {
		t.Error("manifest missing go_version")
	}
	var second Metric
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second.Type != "counter" || second.Name != "pipeline.instructions" || second.Value != 30000 {
		t.Errorf("metric line = %+v", second)
	}
}

func TestFingerprintStability(t *testing.T) {
	a := Fingerprint("width=4", "depth=10")
	if a != Fingerprint("width=4", "depth=10") {
		t.Error("fingerprint not deterministic")
	}
	if a == Fingerprint("width=4", "depth=11") {
		t.Error("different configs collide")
	}
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Error("part boundaries not separated")
	}
	if len(a) != 16 {
		t.Errorf("fingerprint length %d, want 16 hex digits", len(a))
	}
}

func TestPublishExpvarAndServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("served").Add(7)
	r.PublishExpvar("repro_metrics")
	// Re-publishing a different registry must not panic and must win.
	r2 := NewRegistry()
	r2.Counter("served").Add(9)
	r2.PublishExpvar("repro_metrics")

	srv, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Fatal("empty bound address")
	}
}

// fmtFingerprint is Fingerprint as it was first written, hex rendered
// by fmt: the oracle the fmt-free rendering must match.
func fmtFingerprint(parts ...string) string {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 1099511628211
		}
		h ^= 0xFF
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

func TestFingerprintMatchesFmtRendering(t *testing.T) {
	long := strings.Repeat("x/", 300)
	for _, parts := range [][]string{
		nil, {}, {""}, {"", ""}, {"a"}, {"ab", "c"}, {"a", "bc"},
		{"width=4", "depth=10"}, {long, "\x00\xff", "ünïcode"},
	} {
		want := fmtFingerprint(parts...)
		if got := Fingerprint(parts...); got != want {
			t.Errorf("Fingerprint(%q) = %s, fmt rendering %s", parts, got, want)
		}
		h := NewFingerprintHash()
		for _, p := range parts {
			h.Part([]byte(p))
		}
		if got := h.String(); got != want {
			t.Errorf("parts %q folded one by one = %s, want %s", parts, got, want)
		}
	}
	// Short hashes keep their leading zeros.
	for _, v := range []uint64{0, 1, 0xabc, 1 << 60, 1<<64 - 1} {
		if got, want := FingerprintHash(v).String(), fmt.Sprintf("%016x", v); got != want {
			t.Errorf("FingerprintHash(%#x) = %s, want %s", v, got, want)
		}
	}
}
