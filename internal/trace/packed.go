package trace

import (
	"fmt"
	"io"

	"repro/internal/isa"
)

// PackedTrace is the executable form of a trace: the tape's records
// fully decoded into flat struct-of-arrays columns. Everything the
// simulator's fetch stage would otherwise re-derive per record —
// operand presence, memory/branch annotations, the address-path base
// register and FP latencies — is resolved once at pack time, so the
// hot loop iterates arrays instead of re-interpreting records.
//
// The columns the cycle loop reads are dense, one entry per dynamic
// instruction: 15 bytes (class, flags, three registers, base, FP
// latency and the 8-byte PC). Like the tape, the trace keeps a memory
// address only on memory records and a branch target only on branches,
// each column in program order; a rank table (8 bytes per 64 records)
// finds a record's entries without a scan of the trace. On the
// catalog's measured windows (39.8% memory ops, 14.9% branches) that
// is about 19.5 bytes per instruction. The packers trim every column
// to its length, so a retained trace carries no append slack.
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
	addr   []uint64    // memory records only, in program order
	target []uint64    // branch records only, in program order
	rank   []blockRank // entry k: the addr and target counts before record k·rankBlock
}

// rankBlock is the number of records one rank-table entry covers.
const rankBlock = 64

// blockRank is one rank-table entry: the number of addr and target
// entries that precede the first record of its block.
type blockRank struct{ mem, br uint32 }

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

// Columns is a read-only struct-of-arrays view of a packed trace. The
// dense columns hold record i at index i; the simulator's cycle loop
// iterates them directly by sequence number instead of materializing
// isa.Instruction values per fetch. Addr and Target are by kind: the
// addresses of the view's memory records (FlagHasMem) and the targets
// of its branches, in program order, which a program-order pass (the
// model replay) walks with one cursor each. Callers must not mutate
// the slices; they alias the trace's backing arrays.
type Columns struct {
	Class  []uint8
	Flags  []uint8 // FlagTaken | FlagHasMem | FlagWritesReg
	FPLat  []uint8
	Dst    []isa.Reg
	Src1   []isa.Reg
	Src2   []isa.Reg
	Base   []isa.Reg
	PC     []uint64
	Addr   []uint64 // one per memory record
	Target []uint64 // one per branch record
}

// Columns returns the packed column view of records [lo, Len).
func (p *PackedTrace) Columns(lo int) Columns {
	mem, br := p.rankAt(lo)
	return Columns{
		Class:  p.class[lo:],
		Flags:  p.flags[lo:],
		FPLat:  p.fplat[lo:],
		Dst:    p.dst[lo:],
		Src1:   p.src1[lo:],
		Src2:   p.src2[lo:],
		Base:   p.base[lo:],
		PC:     p.pc[lo:],
		Addr:   p.addr[mem:],
		Target: p.target[br:],
	}
}

// rankAt returns how many addr and target entries precede record i
// (0 ≤ i ≤ Len): a rank-table lookup plus a scan of at most
// rankBlock−1 records.
func (p *PackedTrace) rankAt(i int) (mem, br int) {
	if i == p.Len() {
		return len(p.addr), len(p.target)
	}
	r := p.rank[i/rankBlock]
	mem, br = int(r.mem), int(r.br)
	for j := i &^ (rankBlock - 1); j < i; j++ {
		if p.flags[j]&packedHasMem != 0 {
			mem++
		}
		if isa.Class(p.class[j]) == isa.Branch {
			br++
		}
	}
	return mem, br
}

// Pack decodes a materialized instruction slice into packed form.
func Pack(ins []isa.Instruction) (*PackedTrace, error) {
	p := NewPackedTrace(len(ins))
	for i := range ins {
		if err := p.Append(ins[i]); err != nil {
			return nil, err
		}
	}
	return p.trim(), nil
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
	return p.trim(), nil
}

// PackAll drains src into packed form. The dense columns are sized
// from the stream's length when it reports one, capped so a loose
// bound over a short source reserves little. A source that reports a
// decode error through Err (a Reader) fails the pack instead of
// packing a prefix.
func PackAll(src Stream) (*PackedTrace, error) {
	n := 0
	if l, ok := src.(interface{ Len() int }); ok {
		n = min(l.Len(), 1<<16)
	}
	p := NewPackedTrace(n)
	for in, ok := src.Next(); ok; in, ok = src.Next() {
		if err := p.Append(in); err != nil {
			return nil, err
		}
	}
	if e, ok := src.(interface{ Err() error }); ok && e.Err() != nil {
		return nil, e.Err()
	}
	return p.trim(), nil
}

// ReadAllPacked decodes a whole trace tape (see the codec format in
// this package) straight into packed form — the tape is the durable
// encoding, the packed trace its executable counterpart.
func ReadAllPacked(r io.Reader) (*PackedTrace, error) { return PackAll(NewReader(r)) }

// NewPackedTrace returns an empty packed trace with capacity for n
// instructions. The by-kind columns are reserved for n records too, so
// packing n records allocates a fixed number of times; the packers
// then trim them.
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
		rank:   make([]blockRank, 0, (n+rankBlock-1)/rankBlock),
	}
}

// trim drops every column's append slack, so a packed trace that is
// kept (the sweep memo holds one per workload) retains only its
// records. It returns p.
func (p *PackedTrace) trim() *PackedTrace {
	p.class, p.flags, p.fplat = clip(p.class), clip(p.flags), clip(p.fplat)
	p.dst, p.src1, p.src2, p.base = clip(p.dst), clip(p.src1), clip(p.src2), clip(p.base)
	p.pc, p.addr, p.target = clip(p.pc), clip(p.addr), clip(p.target)
	p.rank = clip(p.rank)
	return p
}

// clip returns s in a backing array of exactly its length.
func clip[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// Append validates one instruction and packs it. Appending in chunks
// of any size yields the same packed trace as packing all at once —
// the per-instruction columns carry no inter-record encoder state
// (unlike the tape's delta compression). As on the tape, only a memory
// record keeps an address and only a branch a target, so a record
// carrying either elsewhere is refused rather than altered.
func (p *PackedTrace) Append(in isa.Instruction) error {
	if err := in.Validate(); err != nil {
		return fmt.Errorf("trace: pack instruction %d: %w", p.Len(), err)
	}
	if in.Addr != 0 && !in.HasMemory() {
		return fmt.Errorf("trace: pack instruction %d: address on a non-memory instruction", p.Len())
	}
	if in.Target != 0 && in.Class != isa.Branch {
		return fmt.Errorf("trace: pack instruction %d: target on a non-branch instruction", p.Len())
	}
	if p.Len()%rankBlock == 0 {
		p.rank = append(p.rank, blockRank{uint32(len(p.addr)), uint32(len(p.target))})
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
	if in.HasMemory() {
		p.addr = append(p.addr, in.Addr)
	}
	if in.Class == isa.Branch {
		p.target = append(p.target, in.Target)
	}
	return nil
}

// Len returns the number of packed instructions.
func (p *PackedTrace) Len() int { return len(p.class) }

// record reconstructs the i-th instruction, whose address and target
// (if it has them) sit at *mem and *br of the by-kind columns, and
// advances those cursors past it.
//
//lint:hotpath per-fetch record materialization; must not allocate
func (p *PackedTrace) record(i int, mem, br *int) isa.Instruction {
	in := isa.Instruction{
		PC:    p.pc[i],
		Dst:   p.dst[i],
		Src1:  p.src1[i],
		Src2:  p.src2[i],
		Class: isa.Class(p.class[i]),
		Taken: p.flags[i]&packedTaken != 0,
		FPLat: p.fplat[i],
	}
	if p.flags[i]&packedHasMem != 0 {
		in.Addr = p.addr[*mem]
		*mem++
	}
	if in.Class == isa.Branch {
		in.Target = p.target[*br]
		*br++
	}
	return in
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
	mem, br := 0, 0
	for i := range out {
		out[i] = p.record(i, &mem, &br)
	}
	return out
}

// Stream returns a resettable cursor over the whole packed trace.
func (p *PackedTrace) Stream() *PackedStream { return p.Slice(0, p.Len()) }

// Slice returns a resettable cursor over records [lo, hi). The bounds
// are clamped to the packed range.
func (p *PackedTrace) Slice(lo, hi int) *PackedStream {
	lo = min(max(lo, 0), p.Len())
	hi = min(max(hi, lo), p.Len())
	s := &PackedStream{t: p, lo: lo, hi: hi}
	s.Reset()
	return s
}

// PackedStream is a cursor over a window of a PackedTrace. It
// implements Stream and Resettable; Next is allocation-free and O(1).
type PackedStream struct {
	t      *PackedTrace
	lo, hi int
	pos    int
	// mem and br index record pos's entries in the by-kind addr and
	// target columns.
	mem, br int
}

// Next implements Stream.
//
//lint:hotpath per-fetch stream advance; must not allocate
func (s *PackedStream) Next() (isa.Instruction, bool) {
	if s.pos >= s.hi {
		return isa.Instruction{}, false
	}
	in := s.t.record(s.pos, &s.mem, &s.br)
	s.pos++
	return in, true
}

// Reset implements Resettable, rewinding to the window start.
func (s *PackedStream) Reset() {
	s.pos = s.lo
	s.mem, s.br = s.t.rankAt(s.pos)
}

// Len returns the window length.
func (s *PackedStream) Len() int { return s.hi - s.lo }

// Trace exposes the backing packed trace and the cursor's remaining
// window [pos, hi); the simulator's packed fast path iterates the
// columns directly through it.
func (s *PackedStream) Trace() (p *PackedTrace, pos, hi int) {
	return s.t, s.pos, s.hi
}

// Skip advances the cursor by n records (clamped to the window end),
// keeping an externally-iterated cursor consistent. It ranks the new
// position instead of walking the skipped records.
func (s *PackedStream) Skip(n int) {
	s.pos = min(s.pos+n, s.hi)
	s.mem, s.br = s.t.rankAt(s.pos)
}
