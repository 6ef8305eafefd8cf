package trace

import (
	"math/rand"
	"reflect"
	"slices"
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
		// A cursor opened at any record ranks its way into the by-kind
		// columns.
		for i := range ins {
			if at, _ := p.Slice(i, len(ins)).Next(); at != ins[i] {
				t.Fatalf("Slice(%d).Next() = %+v, want %+v", i, at, ins[i])
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
	if l := p.Slice(100, 200).Len(); l != 0 {
		t.Fatalf("slice past the end len = %d, want 0", l)
	}
}

// TestPackedColumnsView checks the column view at window starts on,
// just past and inside rank blocks: the dense columns hold record
// lo+j at index j, and Addr and Target hold exactly the addresses of
// the window's memory records and the targets of its branches, in
// program order.
func TestPackedColumnsView(t *testing.T) {
	ins := packedTestStream(200, 23)
	p, err := Pack(ins)
	if err != nil {
		t.Fatal(err)
	}
	for _, lo := range []int{0, 1, 40, 63, 64, 65, 128, 199, 200} {
		c := p.Columns(lo)
		if len(c.Class) != p.Len()-lo {
			t.Fatalf("lo %d: column view length = %d, want %d", lo, len(c.Class), p.Len()-lo)
		}
		var addrs, targets []uint64
		for i := lo; i < p.Len(); i++ {
			in := ins[i]
			j := i - lo
			if isa.Class(c.Class[j]) != in.Class || c.Dst[j] != in.Dst ||
				c.Src1[j] != in.Src1 || c.Src2[j] != in.Src2 ||
				c.PC[j] != in.PC || c.FPLat[j] != in.FPLat {
				t.Fatalf("lo %d: column view record %d disagrees with source %d", lo, j, i)
			}
			if taken := c.Flags[j]&FlagTaken != 0; taken != in.Taken {
				t.Fatalf("lo %d: FlagTaken of %d = %v, want %v", lo, j, taken, in.Taken)
			}
			if hasMem := c.Flags[j]&FlagHasMem != 0; hasMem != in.HasMemory() {
				t.Fatalf("lo %d: FlagHasMem of %d = %v, want %v", lo, j, hasMem, in.HasMemory())
			}
			if writes := c.Flags[j]&FlagWritesReg != 0; writes != in.WritesReg() {
				t.Fatalf("lo %d: FlagWritesReg of %d = %v, want %v", lo, j, writes, in.WritesReg())
			}
			if in.HasMemory() {
				addrs = append(addrs, in.Addr)
			}
			if in.Class == isa.Branch {
				targets = append(targets, in.Target)
			}
		}
		if !slices.Equal(c.Addr, addrs) {
			t.Fatalf("lo %d: Addr = %v, want the window's memory addresses %v", lo, c.Addr, addrs)
		}
		if !slices.Equal(c.Target, targets) {
			t.Fatalf("lo %d: Target = %v, want the window's branch targets %v", lo, c.Target, targets)
		}
	}
}

// TestPackRejectsStrayAddrAndTarget: the trace keeps an address only on
// memory records and a target only on branches, so a record carrying
// either elsewhere cannot be reproduced and must be refused.
func TestPackRejectsStrayAddrAndTarget(t *testing.T) {
	for _, in := range []isa.Instruction{
		{PC: 0x1000, Class: isa.RR, Addr: 0x8000, Dst: 1, Src1: 2, Src2: isa.RegNone},
		{PC: 0x1000, Class: isa.Load, Addr: 0x8000, Target: 0x2000, Dst: 1, Src1: 2, Src2: isa.RegNone},
	} {
		if _, err := Pack([]isa.Instruction{in}); err == nil {
			t.Errorf("Pack accepted %+v", in)
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
		s.Reset()
		s.Skip(17)
		_ = p.HasMemory(17)
		_ = p.BaseReg(17)
	}); avg != 0 {
		t.Fatalf("Reset/Skip/annotation reads allocate %.1f/op, want 0", avg)
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
