package trace

import (
	"fmt"
	"io"

	"repro/internal/isa"
)

// PackedTrace is the executable form of a trace: the tape's records
// fully decoded into flat struct-of-arrays columns, one entry per
// dynamic instruction. Everything the simulator's fetch stage would
// otherwise re-derive per record — operand presence, memory/branch
// annotations, the address-path base register and FP latencies — is
// resolved once at pack time, so the hot loop iterates arrays instead
// of re-interpreting records. The columns hold exactly what the
// simulator reads: 31 bytes per instruction.
//
// A PackedTrace is append-only while being built and immutable once
// streamed; the same packed trace can back any number of concurrent
// PackedStream cursors (e.g. one per swept depth).
type PackedTrace struct {
	class  []uint8
	flags  []uint8 // packedTaken | packedHasMem | packedWritesReg
	dst    []isa.Reg
	src1   []isa.Reg
	src2   []isa.Reg
	base   []isa.Reg // pre-resolved base register (RegNone when none)
	fplat  []uint8
	pc     []uint64
	addr   []uint64
	target []uint64
}

// Flag bits of the packed per-instruction flags column (see Columns).
const (
	FlagTaken     = 1 << 0
	FlagHasMem    = 1 << 1
	FlagWritesReg = 1 << 2
)

// Unexported aliases keep the builder code readable.
const (
	packedTaken     = FlagTaken
	packedHasMem    = FlagHasMem
	packedWritesReg = FlagWritesReg
)

// Columns is a read-only struct-of-arrays view of a packed trace,
// record i across all slices. The simulator's fused hot loop iterates
// these columns directly by sequence number instead of materializing
// isa.Instruction values per fetch. Callers must not mutate the
// slices; they alias the trace's backing arrays.
type Columns struct {
	Class  []uint8
	Flags  []uint8 // FlagTaken | FlagHasMem | FlagWritesReg
	FPLat  []uint8
	Dst    []isa.Reg
	Src1   []isa.Reg
	Src2   []isa.Reg
	Base   []isa.Reg
	PC     []uint64
	Addr   []uint64
	Target []uint64
}

// Columns returns the packed column view of records [lo, Len).
func (p *PackedTrace) Columns(lo int) Columns {
	return Columns{
		Class:  p.class[lo:],
		Flags:  p.flags[lo:],
		FPLat:  p.fplat[lo:],
		Dst:    p.dst[lo:],
		Src1:   p.src1[lo:],
		Src2:   p.src2[lo:],
		Base:   p.base[lo:],
		PC:     p.pc[lo:],
		Addr:   p.addr[lo:],
		Target: p.target[lo:],
	}
}

// Pack decodes a materialized instruction slice into packed form.
func Pack(ins []isa.Instruction) (*PackedTrace, error) {
	p := NewPackedTrace(len(ins))
	for i := range ins {
		if err := p.Append(ins[i]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// PackStream packs up to n instructions from src (fewer if the stream
// ends first).
func PackStream(src Stream, n int) (*PackedTrace, error) {
	p := NewPackedTrace(n)
	for i := 0; i < n; i++ {
		in, ok := src.Next()
		if !ok {
			break
		}
		if err := p.Append(in); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// ReadAllPacked decodes a whole trace tape (see the codec format in
// this package) straight into packed form — the tape is the durable
// encoding, the packed trace its executable counterpart.
func ReadAllPacked(r io.Reader) (*PackedTrace, error) {
	tr := NewReader(r)
	p := NewPackedTrace(tr.Len())
	for {
		in, ok := tr.Next()
		if !ok {
			break
		}
		if err := p.Append(in); err != nil {
			return nil, err
		}
	}
	if err := tr.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewPackedTrace returns an empty packed trace with capacity for n
// instructions.
func NewPackedTrace(n int) *PackedTrace {
	if n < 0 {
		n = 0
	}
	return &PackedTrace{
		class:  make([]uint8, 0, n),
		flags:  make([]uint8, 0, n),
		dst:    make([]isa.Reg, 0, n),
		src1:   make([]isa.Reg, 0, n),
		src2:   make([]isa.Reg, 0, n),
		base:   make([]isa.Reg, 0, n),
		fplat:  make([]uint8, 0, n),
		pc:     make([]uint64, 0, n),
		addr:   make([]uint64, 0, n),
		target: make([]uint64, 0, n),
	}
}

// Append validates one instruction and packs it. Appending in chunks
// of any size yields the same packed trace as packing all at once —
// the per-instruction columns carry no inter-record encoder state
// (unlike the tape's delta compression).
func (p *PackedTrace) Append(in isa.Instruction) error {
	if err := in.Validate(); err != nil {
		return fmt.Errorf("trace: pack instruction %d: %w", p.Len(), err)
	}
	var f uint8
	if in.Taken {
		f |= packedTaken
	}
	if in.HasMemory() {
		f |= packedHasMem
	}
	if in.WritesReg() {
		f |= packedWritesReg
	}
	p.class = append(p.class, uint8(in.Class))
	p.flags = append(p.flags, f)
	p.dst = append(p.dst, in.Dst)
	p.src1 = append(p.src1, in.Src1)
	p.src2 = append(p.src2, in.Src2)
	base := isa.RegNone
	if in.HasMemory() {
		base = in.BaseReg()
	}
	p.base = append(p.base, base)
	p.fplat = append(p.fplat, in.FPLat)
	p.pc = append(p.pc, in.PC)
	p.addr = append(p.addr, in.Addr)
	p.target = append(p.target, in.Target)
	return nil
}

// Len returns the number of packed instructions.
func (p *PackedTrace) Len() int { return len(p.class) }

// At reconstructs the i-th instruction. The columns are flat arrays,
// so this is a handful of indexed loads with no per-record decoding.
//
//lint:hotpath per-fetch record materialization; must not allocate
func (p *PackedTrace) At(i int) isa.Instruction {
	return isa.Instruction{
		PC:     p.pc[i],
		Addr:   p.addr[i],
		Target: p.target[i],
		Dst:    p.dst[i],
		Src1:   p.src1[i],
		Src2:   p.src2[i],
		Class:  isa.Class(p.class[i]),
		Taken:  p.flags[i]&packedTaken != 0,
		FPLat:  p.fplat[i],
	}
}

// HasMemory reports the pre-resolved memory annotation of record i.
func (p *PackedTrace) HasMemory(i int) bool { return p.flags[i]&packedHasMem != 0 }

// WritesReg reports the pre-resolved writes-register annotation of
// record i.
func (p *PackedTrace) WritesReg(i int) bool { return p.flags[i]&packedWritesReg != 0 }

// BaseReg returns the pre-resolved address-path base register of
// record i (RegNone for non-memory records).
func (p *PackedTrace) BaseReg(i int) isa.Reg { return p.base[i] }

// Unpack materializes the packed trace back into a record slice.
func (p *PackedTrace) Unpack() []isa.Instruction {
	out := make([]isa.Instruction, p.Len())
	for i := range out {
		out[i] = p.At(i)
	}
	return out
}

// Stream returns a resettable cursor over the whole packed trace.
func (p *PackedTrace) Stream() *PackedStream { return p.Slice(0, p.Len()) }

// Slice returns a resettable cursor over records [lo, hi). The bounds
// are clamped to the packed range.
func (p *PackedTrace) Slice(lo, hi int) *PackedStream {
	if lo < 0 {
		lo = 0
	}
	if hi > p.Len() {
		hi = p.Len()
	}
	if hi < lo {
		hi = lo
	}
	return &PackedStream{t: p, lo: lo, hi: hi, pos: lo}
}

// PackedStream is a cursor over a window of a PackedTrace. It
// implements Stream and Resettable; Next is allocation-free.
type PackedStream struct {
	t      *PackedTrace
	lo, hi int
	pos    int
}

// Next implements Stream.
//
//lint:hotpath per-fetch stream advance; must not allocate
func (s *PackedStream) Next() (isa.Instruction, bool) {
	if s.pos >= s.hi {
		return isa.Instruction{}, false
	}
	in := s.t.At(s.pos)
	s.pos++
	return in, true
}

// Reset implements Resettable, rewinding to the window start.
func (s *PackedStream) Reset() { s.pos = s.lo }

// Len returns the window length.
func (s *PackedStream) Len() int { return s.hi - s.lo }

// Trace exposes the backing packed trace and the cursor's remaining
// window [pos, hi); the simulator's packed fast path iterates the
// columns directly through it.
func (s *PackedStream) Trace() (p *PackedTrace, pos, hi int) {
	return s.t, s.pos, s.hi
}

// Skip advances the cursor by n records (clamped to the window end),
// keeping an externally-iterated cursor consistent.
func (s *PackedStream) Skip(n int) {
	s.pos += n
	if s.pos > s.hi {
		s.pos = s.hi
	}
}
