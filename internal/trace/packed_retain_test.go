package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestPackedRetainedBytes guards what a packed measured window keeps
// alive for the life of the sweep memo. Every catalog workload's
// default window (30k instructions after a streamed 30k warm-up, as
// the memo packs it) must retain exactly 7 bytes of dense one-byte
// columns and an 8-byte PC per record, 8 bytes per memory record, 8
// per branch and 8 per 64-record rank block, with no column carrying
// append slack: a dense address or target column, or a packer that
// forgets to trim, fails it. The tape packer is held to the same
// bound on one workload. The catalog-wide figure is logged (-v).
func TestPackedRetainedBytes(t *testing.T) {
	const warmup, n = 30000, 30000
	var records, retained, mems, branches int
	for i, prof := range workload.All() {
		gen := workload.MustGenerator(prof)
		for range warmup {
			gen.Next()
		}
		p, err := trace.PackStream(gen, n)
		if err != nil {
			t.Fatal(err)
		}
		got, mem, br := checkRetained(t, prof.Name, p)
		records, retained, mems, branches = records+n, retained+got, mems+mem, branches+br
		if i > 0 {
			continue
		}
		var tape bytes.Buffer
		if err := trace.WriteAll(&tape, p.Unpack()); err != nil {
			t.Fatal(err)
		}
		fromTape, err := trace.ReadAllPacked(&tape)
		if err != nil {
			t.Fatal(err)
		}
		checkRetained(t, prof.Name+" (tape)", fromTape)
	}
	t.Logf("catalog: %.2f bytes per instruction retained; %.1f%% memory records, %.1f%% branches",
		float64(retained)/float64(records),
		100*float64(mems)/float64(records), 100*float64(branches)/float64(records))
}

// checkRetained asserts p's columns have no slack and total the bytes
// its record mix allows; it returns the total and the memory and
// branch record counts.
func checkRetained(t *testing.T, name string, p *trace.PackedTrace) (retained, mems, branches int) {
	t.Helper()
	for _, in := range p.Unpack() {
		if in.HasMemory() {
			mems++
		}
		if in.Class == isa.Branch {
			branches++
		}
	}
	for _, c := range p.ColumnSizes() {
		if c.Cap != c.Len {
			t.Errorf("%s: column %s has len %d, cap %d", name, c.Name, c.Len, c.Cap)
		}
		retained += c.Cap * c.Elem
	}
	n := p.Len()
	if want := n*(7+8) + 8*mems + 8*branches + 8*((n+63)/64); retained != want {
		t.Errorf("%s: %d records retain %d bytes, want %d (%d memory, %d branches)",
			name, n, retained, want, mems, branches)
	}
	return retained, mems, branches
}
