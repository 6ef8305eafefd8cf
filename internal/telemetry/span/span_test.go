package span

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/promexp"
)

func TestNilTracerIsFullyDisabled(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("study", String("k", "v"))
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	// Every operation on the nil span chain must be a no-op.
	child := sp.Child("point", Int("depth", 10))
	child.SetAttr("a", "b")
	child.End()
	sp.End()
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Records() != nil {
		t.Fatal("nil tracer accumulated state")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("nil tracer WriteJSONL did not error")
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("nil tracer WriteChromeTrace did not error")
	}
}

func TestSpanHierarchyAndDurations(t *testing.T) {
	tr := NewTracer(nil, 0)
	study := tr.Start("study", Int("workloads", 2))
	wl := study.Child("workload", String("workload", "w1"))
	pt := wl.Child("point", Int("depth", 10))
	sim := pt.Child("simulate")
	sim.End()
	pt.End()
	wl.End()
	study.End()

	if tr.Len() != 4 {
		t.Fatalf("recorded %d spans, want 4", tr.Len())
	}
	recs := tr.Records()
	// Start order: study opened first, then workload, point, simulate.
	wantNames := []string{"study", "workload", "point", "simulate"}
	for i, r := range recs {
		if r.Name != wantNames[i] {
			t.Fatalf("record %d is %q, want %q", i, r.Name, wantNames[i])
		}
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["workload"].Parent != byName["study"].ID ||
		byName["point"].Parent != byName["workload"].ID ||
		byName["simulate"].Parent != byName["point"].ID {
		t.Fatal("parent chain broken")
	}
	// Durations nest: every child's interval lies within its parent's.
	for _, pair := range [][2]string{{"study", "workload"}, {"workload", "point"}, {"point", "simulate"}} {
		p, c := byName[pair[0]], byName[pair[1]]
		if c.StartNS < p.StartNS || c.StartNS+c.DurNS > p.StartNS+p.DurNS {
			t.Errorf("%s [%d,%d] outside parent %s [%d,%d]",
				pair[1], c.StartNS, c.StartNS+c.DurNS, pair[0], p.StartNS, p.StartNS+p.DurNS)
		}
	}
	if wl, ok := byName["workload"].Attr("workload"); !ok || wl != "w1" {
		t.Errorf("workload attr = %q, %v", wl, ok)
	}
	if kids := tr.Children(byName["point"].ID); len(kids) != 1 || kids[0].Name != "simulate" {
		t.Errorf("Children(point) = %+v", kids)
	}
	if pts := tr.ByName("point"); len(pts) != 1 {
		t.Errorf("ByName(point) = %+v", pts)
	}
}

func TestSpanHistogramsReachRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := NewTracer(reg, 0)
	for i := 0; i < 3; i++ {
		tr.Start("simulate").End()
	}
	h := reg.Histogram("span.simulate_us")
	if h.Count() != 3 {
		t.Fatalf("span.simulate_us count = %d, want 3", h.Count())
	}
	// The quantiles are well-defined even for near-zero durations.
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if v := h.Quantile(q); v < 0 {
			t.Errorf("quantile %v = %v", q, v)
		}
	}
}

func TestCapacityDropsExcessSpans(t *testing.T) {
	tr := NewTracer(nil, 2)
	for i := 0; i < 5; i++ {
		tr.Start("point").End()
	}
	if tr.Len() != 2 {
		t.Fatalf("buffered %d spans, want 2", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped %d spans, want 3", tr.Dropped())
	}
	// The ring keeps the most recent spans: the oldest are evicted.
	recs := tr.Records()
	if recs[0].ID != 4 || recs[1].ID != 5 {
		t.Fatalf("buffered IDs %d, %d, want the last two (4, 5)", recs[0].ID, recs[1].ID)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTracer(nil, 0)
	root := tr.Start("study")
	root.Child("workload", String("workload", "w")).End()
	root.End()
	man := telemetry.NewManifest("test")

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, &man); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 3 (manifest + 2 spans)", len(lines))
	}
	var first struct {
		Type string `json:"type"`
		Tool string `json:"tool"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Type != "manifest" || first.Tool != "test" {
		t.Fatalf("first line = %+v, want manifest", first)
	}
	var sp jsonlSpan
	if err := json.Unmarshal([]byte(lines[2]), &sp); err != nil {
		t.Fatal(err)
	}
	if sp.Type != "span" || sp.Name != "workload" || sp.Parent == 0 {
		t.Fatalf("span line = %+v", sp)
	}
	if sp.Attrs["workload"] != "w" {
		t.Fatalf("span attrs = %+v", sp.Attrs)
	}
	if sp.DurUS < 0 || sp.StartUS < 0 {
		t.Fatalf("negative timing: %+v", sp)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(nil, 0)
	w1 := tr.Start("workload", String("workload", "w1"))
	w1.Child("point", Int("depth", 4)).End()
	w1.End()
	w2 := tr.Start("workload", String("workload", "w2"))
	w2.End()
	man := telemetry.NewManifest("test")

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, &man); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Metadata    map[string]any   `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	if trace.Metadata["tool"] != "test" {
		t.Fatalf("metadata = %+v", trace.Metadata)
	}
	var complete, lanes int
	tids := map[float64]bool{}
	for _, ev := range trace.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			tids[ev["tid"].(float64)] = true
		case "M":
			if ev["name"] == "thread_name" {
				lanes++
			}
		}
	}
	if complete != 3 {
		t.Fatalf("%d complete events, want 3", complete)
	}
	// The two root spans render on distinct tracks.
	if len(tids) != 2 || lanes != 2 {
		t.Fatalf("tracks = %v, thread_name events = %d, want 2 lanes", tids, lanes)
	}
}

func TestConcurrentSpanEmission(t *testing.T) {
	// Hammer one tracer from many goroutines — the race detector shard
	// of CI turns this into a data-race proof, for the filling buffer
	// and (capacity 100) for the evicting ring.
	const want = 8 * (1 + 50*2)
	for _, capacity := range []int{0, 100} {
		reg := telemetry.NewRegistry()
		tr := NewTracer(reg, capacity)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				root := tr.Start("workload", Int("goroutine", g))
				for i := 0; i < 50; i++ {
					pt := root.Child("point", Int("depth", i))
					pt.Child("simulate").End()
					pt.End()
				}
				root.End()
			}(g)
		}
		wg.Wait()
		kept := want
		if capacity > 0 {
			kept = capacity
		}
		if tr.Len() != kept || tr.Dropped() != uint64(want-kept) {
			t.Fatalf("capacity %d: buffered %d, dropped %d; want %d, %d",
				capacity, tr.Len(), tr.Dropped(), kept, want-kept)
		}
		// IDs are unique.
		seen := map[uint64]bool{}
		for _, r := range tr.Records() {
			if seen[r.ID] {
				t.Fatalf("duplicate span ID %d", r.ID)
			}
			seen[r.ID] = true
		}
		if n := reg.Histogram("span.point_us").Count(); n != 8*50 {
			t.Fatalf("span.point_us count = %d, want %d", n, 8*50)
		}
	}
}

func TestLintAgainstSharedVocabulary(t *testing.T) {
	tr := NewTracer(nil, 0)
	tr.Start("simulate").End()
	tr.Start("bogus_phase").End()
	errs := tr.Lint(promexp.ValidSpanName)
	if len(errs) != 1 {
		t.Fatalf("lint errors = %v, want exactly one (bogus_phase)", errs)
	}
	if !strings.Contains(errs[0].Error(), "bogus_phase") {
		t.Fatalf("lint error %v does not name the offender", errs[0])
	}
	// Every name in the shared table is itself a valid metric stem.
	for name := range promexp.SpanNames {
		if err := promexp.ValidRegistryName("span." + name + "_us"); err != nil {
			t.Errorf("table name %q: %v", name, err)
		}
	}
}

func TestSpanID(t *testing.T) {
	var nilSpan *Span
	if nilSpan.ID() != 0 {
		t.Fatal("nil span ID != 0")
	}
	tr := NewTracer(nil, 0)
	a := tr.Start("study")
	b := tr.Start("study")
	if a.ID() == 0 || b.ID() == 0 || a.ID() == b.ID() {
		t.Fatalf("span IDs not unique and non-zero: %d, %d", a.ID(), b.ID())
	}
}

func TestRollup(t *testing.T) {
	var nilTr *Tracer
	if nilTr.Rollup(1) != nil {
		t.Fatal("nil tracer Rollup != nil")
	}

	tr := NewTracer(nil, 0)
	// Two independent roots; only root a's subtree must roll up.
	a := tr.Start("study")
	b := tr.Start("study")
	aw := a.Child("workload")
	for i := 0; i < 3; i++ {
		p := aw.Child("point")
		s := p.Child("simulate")
		s.End()
		p.End()
	}
	aw.End()
	bw := b.Child("workload")
	bp := bw.Child("point")
	bp.End()
	bw.End()
	b.End()
	a.End()

	got := tr.Rollup(a.ID())
	if got == nil {
		t.Fatal("Rollup returned nil for a populated subtree")
	}
	want := map[string]int{"workload": 1, "point": 3, "simulate": 3}
	for name, n := range want {
		e := got[name]
		if e.Count != n {
			t.Fatalf("rollup[%q].Count = %d, want %d", name, e.Count, n)
		}
		if e.TotalNS < 0 {
			t.Fatalf("rollup[%q].TotalNS negative", name)
		}
	}
	if _, leaked := got["study"]; leaked {
		t.Fatal("rollup includes the root span itself")
	}
	if got["point"].Count == 4 {
		t.Fatal("rollup leaked the other root's subtree")
	}

	// A subtree with no completed descendants rolls up to nil.
	if r := tr.Rollup(999); r != nil {
		t.Fatalf("unknown root rolled up to %v, want nil", r)
	}
}

// scanRollup is Rollup by brute force over the sorted record copy: the
// reference the parent-indexed walk must match.
func scanRollup(tr *Tracer, root uint64) map[string]RollupEntry {
	recs := tr.Records()
	out := map[string]RollupEntry{}
	in := map[uint64]bool{root: true}
	// Records sort by start; a child may start before its parent in
	// synthetic input, so iterate to a fixed point.
	for changed := true; changed; {
		changed = false
		for _, r := range recs {
			if in[r.Parent] && !in[r.ID] {
				in[r.ID] = true
				changed = true
				e := out[r.Name]
				e.Count++
				e.TotalNS += r.DurNS
				out[r.Name] = e
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// TestRollupIndexMatchesScanAcrossEviction drives a small ring far
// past capacity with random trees and checks, after every record, that
// the parent-indexed Rollup agrees with a full scan.
func TestRollupIndexMatchesScanAcrossEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"job", "study", "workload", "point", "simulate"}
	tr := NewTracer(nil, 37)
	var ids []uint64
	for id := uint64(1); id <= 600; id++ {
		parent := uint64(0)
		if len(ids) > 0 && rng.Intn(5) > 0 {
			parent = ids[len(ids)-1-rng.Intn(min(len(ids), 20))]
		}
		tr.add(Record{ID: id, Parent: parent, Name: names[rng.Intn(len(names))],
			StartNS: int64(id), DurNS: int64(rng.Intn(1000))})
		ids = append(ids, id)
		for _, root := range []uint64{0, parent, ids[rng.Intn(len(ids))]} {
			if got, want := tr.Rollup(root), scanRollup(tr, root); !reflect.DeepEqual(got, want) {
				t.Fatalf("after record %d: Rollup(%d) = %v, scan gives %v", id, root, got, want)
			}
		}
	}
	if tr.Len() != 37 || tr.Dropped() != 600-37 {
		t.Fatalf("buffered %d, dropped %d", tr.Len(), tr.Dropped())
	}
}

// TestNoRecordsTracerFeedsHistogramsOnly: a NoRecords tracer hands out
// spans and feeds the span.<name>_us histograms but buffers nothing.
func TestNoRecordsTracerFeedsHistogramsOnly(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := NewTracer(reg, NoRecords)
	job := tr.Start("job")
	for i := 0; i < 3; i++ {
		job.Child("point").End()
	}
	job.End()
	if job.ID() == 0 {
		t.Fatal("NoRecords tracer handed out a nil span")
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Records() != nil || tr.Rollup(job.ID()) != nil {
		t.Fatalf("NoRecords tracer buffered spans: len %d, dropped %d", tr.Len(), tr.Dropped())
	}
	if n := reg.Histogram("span.point_us").Count(); n != 3 {
		t.Fatalf("span.point_us count = %d, want 3", n)
	}
	if n := reg.Histogram("span.job_us").Count(); n != 1 {
		t.Fatalf("span.job_us count = %d, want 1", n)
	}
}
