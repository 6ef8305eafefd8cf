// Package pipeline implements the cycle-accurate simulator of the
// paper's 4-issue in-order superscalar machine (Fig. 2): instructions
// flow through Decode → (memory ops: AgenQ → Agen → Cache) → ExecQ →
// Exec/FPU → Complete → Retire. The pipeline depth between decode and
// execute is configurable from 2 to 40 stages; extra stages are added
// "uniformly" to Decode, Cache and the E-unit as the paper prescribes,
// and at very short depths adjacent units merge into shared stages.
//
// The simulator counts cycles exactly under its stated
// microarchitectural rules, attributes every stall cycle to a hazard
// cause, counts hazard events (the N_H of the analytical model), and
// records per-unit switching activity every cycle for the power
// monitor in package power.
package pipeline

import "fmt"

// Unit identifies one microarchitectural unit for depth planning and
// power accounting.
type Unit int

// The simulator's units. Fetch and Retire are fixed-depth bookends;
// Decode, Agen, Cache and Exec are the expandable logic units whose
// stage counts sum to the pipeline depth; Rename is the one-stage
// register renamer (active only for out-of-order execution — the
// in-order model skips it, as the paper's does); AgenQ and ExecQ are
// decoupling buffers; FPU is the unpipelined floating-point unit.
const (
	UnitFetch Unit = iota
	UnitDecode
	UnitRename
	UnitAgenQ
	UnitAgen
	UnitCache
	UnitExecQ
	UnitExec
	UnitFPU
	UnitRetire

	numUnits = iota
)

// NumUnits is the number of modeled units.
const NumUnits = int(numUnits)

// String names the unit.
func (u Unit) String() string {
	switch u {
	case UnitFetch:
		return "fetch"
	case UnitDecode:
		return "decode"
	case UnitRename:
		return "rename"
	case UnitAgenQ:
		return "agenq"
	case UnitAgen:
		return "agen"
	case UnitCache:
		return "cache"
	case UnitExecQ:
		return "execq"
	case UnitExec:
		return "exec"
	case UnitFPU:
		return "fpu"
	case UnitRetire:
		return "retire"
	default:
		return fmt.Sprintf("Unit(%d)", int(u))
	}
}

// pipe is the transit state of one unit: a fixed-capacity ring of
// in-flight instructions held as parallel sequence/entry-cycle arrays
// (struct-of-arrays, indexed by slot). The backing arrays are sized to
// a power of two so ring arithmetic is a mask, with the configured
// capacity enforced logically.
type pipe struct {
	seq  []uint64
	at   []uint64
	head int
	size int
	mask int
	cap  int
	// lastAt is the entry cycle of the newest element. Entries enter
	// in nondecreasing cycle order, so it bounds every element's age —
	// which makes anyMoving O(1) instead of a scan.
	lastAt uint64
}

func makePipe(capacity int) pipe {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return pipe{seq: make([]uint64, n), at: make([]uint64, n), mask: n - 1, cap: capacity}
}

//lint:hotpath ring occupancy checks run several times per cycle; must not allocate
func (f *pipe) full() bool  { return f.size == f.cap }
func (f *pipe) empty() bool { return f.size == 0 }

//lint:hotpath ring push runs per stage advance; must not allocate
func (f *pipe) push(seq, at uint64) {
	i := (f.head + f.size) & f.mask
	f.seq[i], f.at[i] = seq, at
	f.size++
	f.lastAt = at
}

//lint:hotpath ring head accessors run per stage per cycle; must not allocate
func (f *pipe) headSeq() uint64 { return f.seq[f.head] }
func (f *pipe) headAt() uint64  { return f.at[f.head] }

//lint:hotpath ring pop runs per stage advance; must not allocate
func (f *pipe) pop() (seq, at uint64) {
	seq, at = f.seq[f.head], f.at[f.head]
	f.head = (f.head + 1) & f.mask
	f.size--
	return seq, at
}

// anyMoving reports whether any entry is still in transit (younger
// than the pipe's stage count), i.e. the unit's latches switched this
// cycle. The newest entry has the largest entry cycle, so one compare
// answers for the whole ring.
//
//lint:hotpath per-cycle activity check; must not allocate
func (f *pipe) anyMoving(cycle, transit uint64) bool {
	return f.size > 0 && cycle-f.lastAt < transit
}

// Writer-capture flag bits of window.wflags.
const (
	wHasBase = 1 << 0
	wHasSrc1 = 1 << 1
	wHasSrc2 = 1 << 2
)

// window is the in-flight instruction state from decode entry to
// retirement, held as flat struct-of-arrays indexed by window slot
// (seq mod capacity): the per-slot scheduling fields the hot loop
// touches every cycle live in their own contiguous arrays instead of
// behind per-entry pointers. Instruction fields are not copied in; the
// engine reads them from the packed trace columns by sequence number.
type window struct {
	seq       []uint64 // sequence number (guards window-slot reuse)
	dataReady []uint64 // mem ops: cycle the cache data is available
	issuedAt  []uint64 // issue cycle (never until issued)
	complete  []uint64 // completion cycle (never until known)

	// Memory ops snapshot their base-register producer at decode exit;
	// out-of-order mode captures the full source producers at rename.
	baseWriter []uint64
	src1Writer []uint64
	src2Writer []uint64
	wflags     []uint8

	// mask is capacity−1 when the capacity is a power of two (the
	// default WindowCap is); otherwise 0 and idx falls back to modulo.
	mask uint64
	num  uint64
}

// makeWindow allocates the scheduling arrays.
func makeWindow(capacity int) window {
	w := window{
		seq:        make([]uint64, capacity),
		dataReady:  make([]uint64, capacity),
		issuedAt:   make([]uint64, capacity),
		complete:   make([]uint64, capacity),
		baseWriter: make([]uint64, capacity),
		src1Writer: make([]uint64, capacity),
		src2Writer: make([]uint64, capacity),
		num:        uint64(capacity),
	}
	w.wflags = make([]uint8, capacity)
	if capacity&(capacity-1) == 0 {
		w.mask = uint64(capacity - 1)
	}
	return w
}

// idx maps a sequence number to its window slot.
//
//lint:hotpath window-slot accessor called many times per cycle; must not allocate
func (w *window) idx(seq uint64) uint64 {
	if w.mask != 0 {
		return seq & w.mask
	}
	return seq % w.num
}
