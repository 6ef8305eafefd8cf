package telemetry

import "testing"

func TestLabelNameSortsAndEscapes(t *testing.T) {
	got := LabelName("power_unit", "unit", "fetch", "mode", "gated")
	want := `power_unit{mode="gated",unit="fetch"}`
	if got != want {
		t.Errorf("LabelName = %q, want %q (sorted keys)", got, want)
	}
	got = LabelName("m", "k", "a\"b\\c\nd")
	want = `m{k="a\"b\\c\nd"}`
	if got != want {
		t.Errorf("escaping: got %q, want %q", got, want)
	}
	if got := LabelName("bare"); got != "bare" {
		t.Errorf("no labels: got %q, want bare family", got)
	}
	if got := LabelName("odd", "only-key"); got != "odd" {
		t.Errorf("dangling key: got %q, want bare family", got)
	}
}

// TestLabelNameAllocatesOnce: per-point metrics render dozens of
// labeled names, so a name with clean keys and values costs only the
// string itself.
func TestLabelNameAllocatesOnce(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		LabelName("power_unit_power_watts",
			"unit", "fetch", "mode", "gated", "component", "dynamic", "depth", "10")
	})
	if allocs != 1 {
		t.Errorf("LabelName allocates %v times per call, want 1", allocs)
	}
}

func TestSplitLabelsRoundTrip(t *testing.T) {
	name := LabelName("fam", "b", "2", "a", "1")
	fam, labels := SplitLabels(name)
	if fam != "fam" || labels != `{a="1",b="2"}` {
		t.Errorf("SplitLabels(%q) = %q, %q", name, fam, labels)
	}
	fam, labels = SplitLabels("plain.dotted.name")
	if fam != "plain.dotted.name" || labels != "" {
		t.Errorf("unlabeled split = %q, %q", fam, labels)
	}
}
