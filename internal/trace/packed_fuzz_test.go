package trace_test

// The packed round-trip fuzzer lives in an external test package:
// workload imports trace (the generator implements trace.Stream), so a
// fuzz target that drives the real generator cannot sit inside package
// trace without an import cycle.

import (
	"bytes"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// FuzzPackedTraceRoundTrip feeds arbitrary workload profiles through
// the generator → PackStream path the study runner uses, and asserts
// the packed form is a faithful re-representation of the record
// stream: Unpack and Next both reproduce the reference stream
// exactly, and packing the same records in arbitrary chunk sizes
// yields the same trace as the one-shot pack. Profiles the schema
// rejects are skipped — the fuzzer's job is the packed codec, not
// profile validation (FuzzProfileValidate in internal/workload owns
// that).
func FuzzPackedTraceRoundTrip(f *testing.F) {
	for _, p := range []workload.Profile{
		workload.Representative(workload.Legacy),
		workload.Representative(workload.Modern),
		workload.Representative(workload.SPECInt),
		workload.Representative(workload.SPECFP),
	} {
		var buf bytes.Buffer
		if err := workload.WriteProfile(&buf, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint16(257), uint8(7))
	}
	f.Add([]byte(`{"name":"x","class":"Legacy","mix":{"rr":1}}`), uint16(64), uint8(1))
	f.Add([]byte(`not json`), uint16(10), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, n uint16, chunk uint8) {
		prof, err := workload.ReadProfile(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		gen, err := workload.NewGenerator(prof)
		if err != nil {
			t.Skip()
		}
		count := int(n % 2048)

		// Reference stream: the generator is seed-deterministic, so a
		// second generator from the same profile replays the identical
		// record sequence.
		ref := trace.Collect(gen, count)

		regen, err := workload.NewGenerator(prof)
		if err != nil {
			t.Fatalf("second generator from accepted profile: %v", err)
		}
		p, err := trace.PackStream(regen, count)
		if err != nil {
			t.Fatalf("PackStream: %v", err)
		}
		if p.Len() != len(ref) {
			t.Fatalf("packed %d records, reference has %d", p.Len(), len(ref))
		}

		// Unpack must reproduce the reference stream exactly.
		got := p.Unpack()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("Unpack[%d] = %+v, want %+v", i, got[i], ref[i])
			}
		}

		// The cursor view must replay the same records.
		s := p.Stream()
		for i := 0; ; i++ {
			in, ok := s.Next()
			if !ok {
				break
			}
			if in != ref[i] {
				t.Fatalf("Next record %d = %+v, want %+v", i, in, ref[i])
			}
		}

		// Chunk-size insensitivity: appending the reference records in
		// chunks of an arbitrary fuzzed size must build the same packed
		// trace (annotations included) as the
		// one-shot PackStream above.
		step := int(chunk%64) + 1
		chunked := trace.NewPackedTrace(len(ref))
		for lo := 0; lo < len(ref); lo += step {
			hi := min(lo+step, len(ref))
			for _, rec := range ref[lo:hi] {
				if err := chunked.Append(rec); err != nil {
					t.Fatalf("Append of generator record rejected: %v", err)
				}
			}
		}
		chunkedRecs := chunked.Unpack()
		for i := 0; i < p.Len(); i++ {
			if got[i] != chunkedRecs[i] {
				t.Fatalf("record %d differs between one-shot and incremental pack", i)
			}
			if p.HasMemory(i) != chunked.HasMemory(i) ||
				p.WritesReg(i) != chunked.WritesReg(i) ||
				p.BaseReg(i) != chunked.BaseReg(i) {
				t.Fatalf("annotations of %d differ between one-shot and incremental pack", i)
			}
		}

		// Slicing at a fuzz-chosen boundary must agree with the
		// reference window.
		if count > 0 {
			lo := step % (count + 1)
			win := trace.Collect(p.Slice(lo, count), count)
			if len(win) != len(ref[lo:]) {
				t.Fatalf("Slice(%d,%d) yielded %d records, want %d", lo, count, len(win), len(ref[lo:]))
			}
			for i := range win {
				if win[i] != ref[lo+i] {
					t.Fatalf("Slice record %d = %+v, want %+v", i, win[i], ref[lo+i])
				}
			}
		}
	})
}
