package trace

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// packedTestStream builds a deterministic pseudo-random instruction
// stream covering every class and operand shape, with enough register
// reuse that register dependences and slot-reuse paths are exercised.
func packedTestStream(n int, seed int64) []isa.Instruction {
	rng := rand.New(rand.NewSource(seed))
	ins := make([]isa.Instruction, 0, n)
	pc := uint64(0x1000)
	reg := func() isa.Reg { return isa.Reg(rng.Intn(8)) }
	fpr := func() isa.Reg { return isa.FirstFPR + isa.Reg(rng.Intn(4)) }
	for i := 0; i < n; i++ {
		var in isa.Instruction
		in.PC = pc
		pc += 4
		switch rng.Intn(6) {
		case 0:
			in.Class = isa.RR
			in.Dst, in.Src1, in.Src2 = reg(), reg(), reg()
		case 1:
			in.Class = isa.Load
			in.Dst, in.Src1, in.Src2 = reg(), reg(), isa.RegNone
			in.Addr = uint64(0x8000 + rng.Intn(1<<16)*8)
		case 2:
			in.Class = isa.Store
			in.Dst, in.Src1, in.Src2 = isa.RegNone, reg(), reg()
			in.Addr = uint64(0x8000 + rng.Intn(1<<16)*8)
		case 3:
			in.Class = isa.Branch
			in.Dst, in.Src1, in.Src2 = isa.RegNone, isa.RegNone, isa.RegNone
			in.Taken = rng.Intn(2) == 0
			in.Target = pc + uint64(rng.Intn(64)*4)
		case 4:
			in.Class = isa.FP
			in.Dst, in.Src1, in.Src2 = fpr(), fpr(), fpr()
			in.FPLat = uint8(2 + rng.Intn(10))
		default:
			in.Class = isa.RX
			in.Dst, in.Src1, in.Src2 = reg(), reg(), isa.RegNone
			in.Addr = uint64(0x8000 + rng.Intn(1<<16)*8)
		}
		if err := in.Validate(); err != nil {
			panic(err)
		}
		ins = append(ins, in)
	}
	return ins
}

func TestPackUnpackIsIdentity(t *testing.T) {
	for _, ins := range append(fuzzSeedInstructions(), packedTestStream(500, 7)) {
		p, err := Pack(ins)
		if err != nil {
			t.Fatal(err)
		}
		if p.Len() != len(ins) {
			t.Fatalf("Len = %d, want %d", p.Len(), len(ins))
		}
		if got := p.Unpack(); !decodeEq(got, ins) {
			t.Fatalf("Unpack != source:\n got %v\nwant %v", got, ins)
		}
		for i := range ins {
			if at := p.At(i); at != ins[i] {
				t.Fatalf("At(%d) = %+v, want %+v", i, at, ins[i])
			}
		}
	}
}

func TestPackedAnnotationsMatchInstruction(t *testing.T) {
	ins := packedTestStream(300, 11)
	p, err := Pack(ins)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range ins {
		if p.HasMemory(i) != in.HasMemory() {
			t.Fatalf("HasMemory(%d) = %v, want %v", i, p.HasMemory(i), in.HasMemory())
		}
		if p.WritesReg(i) != in.WritesReg() {
			t.Fatalf("WritesReg(%d) = %v, want %v", i, p.WritesReg(i), in.WritesReg())
		}
		wantBase := isa.RegNone
		if in.HasMemory() {
			wantBase = in.BaseReg()
		}
		if p.BaseReg(i) != wantBase {
			t.Fatalf("BaseReg(%d) = %v, want %v", i, p.BaseReg(i), wantBase)
		}
	}
}

// TestPackChunkInsensitive is the chunk-size property: appending the
// same stream in chunks of any size (including the degenerate 1) must
// produce a packed trace identical to the one-shot pack — the packed
// columns carry no inter-record encoder state.
func TestPackChunkInsensitive(t *testing.T) {
	ins := packedTestStream(257, 17)
	want, err := Pack(ins)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 2, 3, 7, 16, 100, 256, 257, 1000} {
		got := NewPackedTrace(len(ins))
		for lo := 0; lo < len(ins); lo += chunk {
			hi := min(lo+chunk, len(ins))
			for _, in := range ins[lo:hi] {
				if err := got.Append(in); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !packedEqual(got, want) {
			t.Fatalf("chunk size %d produced a different packed trace", chunk)
		}
	}
	// PackStream over the same records must also agree, including when
	// the requested count exceeds the stream.
	for _, n := range []int{len(ins), len(ins) + 100} {
		got, err := PackStream(NewSliceStream(ins), n)
		if err != nil {
			t.Fatal(err)
		}
		if !packedEqual(got, want) {
			t.Fatalf("PackStream(n=%d) diverged from Pack", n)
		}
	}
}

// packedEqual compares two packed traces column by column, the
// pre-resolved annotations included (Unpack alone would not see an
// annotation bug).
func packedEqual(a, b *PackedTrace) bool {
	if a.Len() != b.Len() {
		return false
	}
	if !decodeEq(a.Unpack(), b.Unpack()) {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.HasMemory(i) != b.HasMemory(i) || a.WritesReg(i) != b.WritesReg(i) || a.BaseReg(i) != b.BaseReg(i) {
			return false
		}
	}
	return true
}

func TestPackRejectsInvalidInstruction(t *testing.T) {
	bad := isa.Instruction{Class: isa.Load, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	if bad.Validate() == nil {
		t.Skip("expected an invalid shape; isa accepts it now")
	}
	if _, err := Pack([]isa.Instruction{bad}); err == nil {
		t.Fatal("Pack accepted an instruction Validate rejects")
	}
}

func TestPackedStreamCursor(t *testing.T) {
	ins := packedTestStream(64, 19)
	p, err := Pack(ins)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Slice(10, 30)
	if s.Len() != 20 {
		t.Fatalf("Slice len = %d, want 20", s.Len())
	}
	got := Collect(s, 1000)
	if !decodeEq(got, ins[10:30]) {
		t.Fatal("Slice(10,30) stream differs from source window")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted cursor yielded a record")
	}
	s.Reset()
	if in, ok := s.Next(); !ok || in != ins[10] {
		t.Fatalf("Next after Reset = %+v, want %+v", in, ins[10])
	}
	s.Skip(5)
	if in, ok := s.Next(); !ok || in != ins[16] {
		t.Fatalf("after Skip(5): got %+v, want %+v", in, ins[16])
	}
	s.Skip(1 << 20) // clamps to the window end
	if _, ok := s.Next(); ok {
		t.Fatal("Skip past the end did not exhaust the cursor")
	}
	// Out-of-range slices clamp instead of panicking.
	if l := p.Slice(-5, 10_000).Len(); l != p.Len() {
		t.Fatalf("clamped slice len = %d, want %d", l, p.Len())
	}
	if l := p.Slice(50, 10).Len(); l != 0 {
		t.Fatalf("inverted slice len = %d, want 0", l)
	}
}

func TestPackedColumnsView(t *testing.T) {
	ins := packedTestStream(128, 23)
	p, err := Pack(ins)
	if err != nil {
		t.Fatal(err)
	}
	const lo = 40
	c := p.Columns(lo)
	if len(c.Class) != p.Len()-lo {
		t.Fatalf("column view length = %d, want %d", len(c.Class), p.Len()-lo)
	}
	for i := lo; i < p.Len(); i++ {
		in := ins[i]
		j := i - lo
		if isa.Class(c.Class[j]) != in.Class || c.Dst[j] != in.Dst ||
			c.Src1[j] != in.Src1 || c.Src2[j] != in.Src2 ||
			c.PC[j] != in.PC || c.Addr[j] != in.Addr || c.Target[j] != in.Target ||
			c.FPLat[j] != in.FPLat {
			t.Fatalf("column view record %d disagrees with source %d", j, i)
		}
		if taken := c.Flags[j]&FlagTaken != 0; taken != in.Taken {
			t.Fatalf("FlagTaken of %d = %v, want %v", j, taken, in.Taken)
		}
		if hasMem := c.Flags[j]&FlagHasMem != 0; hasMem != in.HasMemory() {
			t.Fatalf("FlagHasMem of %d = %v, want %v", j, hasMem, in.HasMemory())
		}
		if writes := c.Flags[j]&FlagWritesReg != 0; writes != in.WritesReg() {
			t.Fatalf("FlagWritesReg of %d = %v, want %v", j, writes, in.WritesReg())
		}
	}
}

// TestPackedTraceStreamSharing checks that concurrent cursors over one
// packed trace are independent: advancing one never moves another.
func TestPackedTraceStreamSharing(t *testing.T) {
	ins := packedTestStream(32, 29)
	p, err := Pack(ins)
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.Stream(), p.Stream()
	a.Skip(10)
	if in, ok := b.Next(); !ok || in != ins[0] {
		t.Fatal("cursor b observed cursor a's Skip")
	}
	if in, ok := a.Next(); !ok || in != ins[10] {
		t.Fatal("cursor a lost its position")
	}
}

// TestPackedIterationAllocFree pins the hot-path accessors at zero
// steady-state allocations per record.
func TestPackedIterationAllocFree(t *testing.T) {
	ins := packedTestStream(1024, 31)
	p, err := Pack(ins)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stream()
	var sink isa.Instruction
	if avg := testing.AllocsPerRun(200, func() {
		if in, ok := s.Next(); ok {
			sink = in
		} else {
			s.Reset()
		}
	}); avg != 0 {
		t.Fatalf("Next allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		sink = p.At(17)
		_ = p.HasMemory(17)
		_ = p.BaseReg(17)
	}); avg != 0 {
		t.Fatalf("At/annotation reads allocate %.1f/op, want 0", avg)
	}
	_ = sink
}

// TestColumnsViewIsCheap pins the Columns view itself: building the
// view is slice-header arithmetic, not a copy.
func TestColumnsViewIsCheap(t *testing.T) {
	ins := packedTestStream(256, 37)
	p, err := Pack(ins)
	if err != nil {
		t.Fatal(err)
	}
	var c Columns
	if avg := testing.AllocsPerRun(100, func() {
		c = p.Columns(16)
	}); avg != 0 {
		t.Fatalf("Columns allocates %.1f/op, want 0", avg)
	}
	if &c.Class[0] != &p.class[16] {
		t.Fatal("Columns copied the class column instead of aliasing it")
	}
	if !reflect.DeepEqual(c.PC, p.pc[16:]) {
		t.Fatal("Columns PC view mismatch")
	}
}
