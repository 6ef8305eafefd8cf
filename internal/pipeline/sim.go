package pipeline

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/cache"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// never marks an unknown future cycle.
const never = math.MaxUint64

// watchdogCycles bounds cycles without forward progress before the
// engine reports a deadlock (an engine bug, not a workload property).
const watchdogCycles = 200000

// intLat is the forwarding latency of simple integer operations and
// of the completion pass of memory operations, in cycles. It does not
// scale with the E-pipe depth (see the RR case in issue).
const intLat = 1

// sim is the engine state for one run. The per-slot and per-unit
// state lives in flat struct-of-arrays (window, pipe in unit.go): the
// hot loop indexes contiguous arrays instead of chasing per-entry
// pointers.
type sim struct {
	cfg Config
	src trace.Stream
	res Result

	// psrc is the packed fast path: when the source stream is a
	// trace.PackedStream (and the per-cycle reference engine is not
	// forced), fetch advances it through a concrete, inlinable call
	// instead of the Stream interface.
	psrc *trace.PackedStream

	// Fused-loop state (fastsim.go): when fast is set the run executes
	// runFast, the window carries no record copies (w.in stays nil) and
	// all instruction fields are read from the packed columns fc,
	// indexed by sequence number.
	fc   trace.Columns
	fast bool

	// w is the in-flight window from decode entry to retirement.
	w window

	// Sequence-number cursors: retired ≤ issued ≤ decoded ≤ next.
	// decoded−issued is the execution-queue occupancy; next−retired is
	// the in-flight window.
	retired, issued, decoded, next uint64

	decodePipe pipe
	agenQ      pipe
	agenPipe   pipe
	cachePipe  pipe

	regReady [isa.NumRegs]uint64
	// lastWriter tracks the most recent issued producer of each
	// register, for stall classification and for guarding the
	// late regReady fix-up that loads perform at cache exit.
	lastWriter [isa.NumRegs]uint64
	haveWriter [isa.NumRegs]bool

	// Out-of-order state: the rename table maps each architected
	// register to its youngest renamed producer; pending holds the
	// decoded-but-unissued window in program order; inExecQ is the
	// window occupancy (valid in both modes).
	renameTable [isa.NumRegs]uint64
	haveRename  [isa.NumRegs]bool
	pending     []uint64
	inExecQ     int

	cycle           uint64
	iBusyUntil      uint64 // instruction-cache miss in progress
	lastFetchLine   uint64
	pendingBranch   uint64 // seq of unresolved mispredicted branch
	havePending     bool
	redirectHoldTo  uint64
	cacheBusyUntil  uint64
	fpuBusyUntil    uint64
	execActiveUntil uint64

	decTransit  uint64
	agenTransit uint64
	cacheT      uint64
	execLat     uint64

	traceDone    bool
	lastProgress uint64

	// Telemetry: tel mirrors cfg.Tracer; traceCycle caches whether the
	// current cycle is recorded (nil tracer or sampled-out cycles make
	// every emission site a single predictable branch).
	tel        *telemetry.Tracer
	traceCycle bool

	// inv mirrors cfg.Invariants; nil disables every invariant check
	// site behind a single branch.
	inv *invariant.Recorder

	// Interval-sampling state: the cumulative counters at the last
	// sample boundary.
	lastSampleActive [NumUnits]uint64
	lastSampleOps    [NumUnits]uint64
	lastSampleRet    uint64

	// Per-cycle flags for stall-episode and activity accounting.
	// active is a bitmask of units whose latches switched this cycle
	// (bit u = Unit u): the stages OR their bits in as they move, and
	// recordActivity folds in the in-transit and busy-until latch
	// activity. moved records whether any machine state changed at all
	// — the quiet-cycle test for skip-ahead.
	prevStall    StallCause
	prevWasStall bool
	active       uint32
	moved        bool
	fetchedNow   int
	retiredNow   int

	// Skip-ahead state (see skipahead.go): skip arms span
	// fast-forwarding; quiet marks a cycle in which no machine state
	// moved; lastBucket is the budget bucket of the last stall cycle,
	// for closed-form replication.
	skip       bool
	quiet      bool
	lastBucket CycleBucket
}

// Run simulates the stream to completion on the configured machine
// and returns the measured Result.
func Run(cfg Config, src trace.Stream) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	//lint:ignore detrange wall-clock manifest bookkeeping; never feeds a simulated figure
	start := time.Now()
	return newSim(cfg, src).run(start)
}

// newSim builds the engine state for one run of a validated config.
func newSim(cfg Config, src trace.Stream) *sim {
	s := &sim{
		cfg:         cfg,
		src:         src,
		w:           makeWindow(cfg.WindowCap),
		decodePipe:  makePipe(max(1, cfg.Plan.Decode) * cfg.Width),
		agenQ:       makePipe(cfg.AgenQCap),
		agenPipe:    makePipe(max(1, cfg.Plan.Agen) * cfg.AgenWidth),
		cachePipe:   makePipe(max(1, cfg.Plan.Cache) * cfg.CachePorts),
		decTransit:  uint64(cfg.Plan.Decode + renameStages(cfg)),
		agenTransit: uint64(cfg.Plan.Agen),
		cacheT:      uint64(cfg.Plan.Cache),
		execLat:     uint64(max(1, cfg.Plan.Exec)),
		tel:         cfg.Tracer,
		inv:         cfg.Invariants,
	}
	if cfg.Engine != EnginePerCycle {
		if ps, ok := src.(*trace.PackedStream); ok {
			s.psrc = ps
		}
		// Skip-ahead is exact unless something needs every in-span
		// cycle: the tracer emits per-cycle events, and the out-of-order
		// window re-scans pending instructions per cycle. Invariant
		// checks and activity sampling ride along (see skipahead.go).
		s.skip = !cfg.OutOfOrder && cfg.Tracer == nil
	}
	if cfg.OutOfOrder {
		s.pending = make([]uint64, 0, cfg.WindowCap)
	}
	s.res.Config = cfg
	s.res.IssueHist = make([]uint64, cfg.Width+1)
	if cfg.Hierarchy != nil && !cfg.KeepState {
		cfg.Hierarchy.Reset()
	}
	return s
}

// run simulates to completion and finishes the Result; start is the
// wall-clock start stamped onto its manifest.
func (s *sim) run(start time.Time) (*Result, error) {
	cfg := s.cfg
	if s.skip && s.psrc != nil {
		// Fused packed-trace loop: no tracer is attached, so the engine
		// reads the packed columns directly and the window never
		// materializes instruction records.
		if err := s.runFast(); err != nil {
			return nil, err
		}
	} else {
		s.w.in = make([]isa.Instruction, s.w.num)
		for {
			if s.traceDone && s.retired == s.next {
				break
			}
			s.cycle++
			if cfg.MaxCycles > 0 && s.cycle > cfg.MaxCycles {
				return nil, fmt.Errorf("pipeline: exceeded MaxCycles=%d", cfg.MaxCycles)
			}
			if s.cycle-s.lastProgress > watchdogCycles {
				return nil, errors.New("pipeline: no forward progress (engine deadlock)")
			}
			s.step()
			if s.skip && s.quiet && s.prevWasStall {
				s.skipAhead()
			}
		}
	}
	s.res.Cycles = s.cycle
	if s.inv != nil {
		s.checkRunInvariants()
	}
	s.res.Manifest = cfg.manifest()
	s.res.Manifest.Finish(start)
	if cfg.Metrics != nil {
		s.res.PublishMetrics(cfg.Metrics)
	}
	return &s.res, nil
}

// step advances the machine one cycle, processing stages back to
// front so an instruction traverses at most one stage per cycle.
//
//lint:hotpath the per-cycle simulator body, ROADMAP item 2 rewrite target; must not allocate
func (s *sim) step() {
	s.traceCycle = s.tel.CycleEnabled(s.cycle)
	s.active = 0
	s.moved = false
	s.fetchedNow, s.retiredNow = 0, 0
	wasDone := s.traceDone

	s.resolvePendingBranch()
	if s.retired < s.decoded {
		s.stepRetire()
	}
	s.stepIssue()
	if s.cachePipe.size > 0 {
		s.stepCacheExit()
	}
	if s.agenPipe.size > 0 {
		s.stepAgenAdvance()
	}
	if s.agenQ.size > 0 {
		s.stepAgenQ()
	}
	if s.decodePipe.size > 0 {
		s.stepDecodeExit()
	}
	s.stepFetch()
	s.recordActivity()
	breached := s.inv != nil && s.checkCycleInvariants()

	if occ := int(s.next - s.retired); occ > s.res.MaxWindowOccupied {
		s.res.MaxWindowOccupied = occ
	}
	if iv := s.cfg.SampleInterval; iv > 0 && s.cycle%iv == 0 {
		s.takeSample()
	}
	// A quiet cycle mutated no machine state: nothing was fetched,
	// moved between stages, issued, retired or touched the cache, and
	// the trace-end transition did not fire. Only resolvePendingBranch
	// may have flipped havePending, and the post-resolution state is
	// itself stable — a quiet cycle's accounting therefore replicates
	// verbatim until the next time-gated threshold (see skipahead.go).
	// A cycle that breached an invariant is not replicated: per-cycle
	// stepping would record the breach again on every frozen cycle.
	s.quiet = !s.moved && s.traceDone == wasDone && !breached
}

// takeSample appends one interval of the activity trace.
func (s *sim) takeSample() {
	var sm ActivitySample
	sm.Cycle = s.cycle
	for u := 0; u < NumUnits; u++ {
		sm.UnitActive[u] = s.res.UnitActive[u] - s.lastSampleActive[u]
		sm.UnitOps[u] = s.res.UnitOps[u] - s.lastSampleOps[u]
		s.lastSampleActive[u] = s.res.UnitActive[u]
		s.lastSampleOps[u] = s.res.UnitOps[u]
	}
	sm.Retired = s.res.Instructions - s.lastSampleRet
	s.lastSampleRet = s.res.Instructions
	s.res.Samples = append(s.res.Samples, sm)
}

// resolvePendingBranch unfreezes the front end once the mispredicted
// branch has completed; fetch resumes the following cycle, so the
// refill sees the full decode-to-execute transit.
//
//lint:hotpath per-cycle branch resolution; must not allocate
func (s *sim) resolvePendingBranch() {
	if s.havePending && s.w.complete[s.w.idx(s.pendingBranch)] < s.cycle {
		s.havePending = false
	}
}

//lint:hotpath per-cycle retire stage; must not allocate
func (s *sim) stepRetire() {
	for s.retired < s.decoded && s.retiredNow < s.cfg.Width {
		i := s.w.idx(s.retired)
		if s.w.issuedAt[i] == never || s.w.complete[i] >= s.cycle {
			break
		}
		if s.traceCycle {
			s.traceInstr(telemetry.KindRetire, s.retired, &s.w.in[i])
		}
		s.retired++
		s.retiredNow++
		s.res.Instructions++
		s.res.UnitOps[UnitRetire]++
		s.lastProgress = s.cycle
	}
	if s.retiredNow > 0 {
		s.active |= 1 << UnitRetire
		s.moved = true
	}
}

// stepIssue issues up to Width instructions from the execution queue
// — strictly in program order for the in-order model, oldest-ready-
// first within the window for the out-of-order model — or classifies
// the stall.
//
//lint:hotpath per-cycle issue stage; must not allocate
func (s *sim) stepIssue() {
	if s.cfg.OutOfOrder {
		s.stepIssueOOO()
		return
	}
	issued, memIssued, brIssued := 0, 0, 0
	var cause StallCause
	blocked := false
	for issued < s.cfg.Width && s.issued < s.decoded {
		i := s.w.idx(s.issued)
		in := &s.w.in[i]
		// Structural issue-group limits: memory ops are bounded by the
		// cache ports, branches by the branch unit.
		if in.HasMemory() && memIssued >= s.cfg.CachePorts {
			break
		}
		if in.Class == isa.Branch && brIssued >= s.cfg.BranchWidth {
			break
		}
		if c, ok := s.blockCause(i); ok {
			cause, blocked = c, true
			break
		}
		s.issue(s.issued, i)
		s.issued++
		s.inExecQ--
		issued++
		if in.HasMemory() {
			memIssued++
		}
		if in.Class == isa.Branch {
			brIssued++
		}
		if in.Class == isa.FP {
			s.res.UnitOps[UnitFPU]++
		} else {
			s.res.UnitOps[UnitExec]++
		}
		s.active |= 1 << UnitExecQ
		s.moved = true
	}

	s.finishIssueAccounting(issued, cause, blocked)
}

// finishIssueAccounting updates issue statistics, the cycle budget and
// stall-episode counters after an issue attempt (shared by both issue
// disciplines). It runs exactly once per cycle, which is what makes
// the cycle budget exhaustive and exclusive: every cycle lands in
// exactly one bucket here.
//
//lint:hotpath per-cycle issue accounting; must not allocate
func (s *sim) finishIssueAccounting(issued int, cause StallCause, blocked bool) {
	if issued > 0 {
		s.res.IssueCycles++
		s.res.IssueHist[issued]++
		s.res.CycleBudget[BudgetUsefulIssue]++
		s.prevWasStall = false
		return
	}
	s.res.IssueHist[0]++
	if !blocked {
		// Execution queue empty: either the front end is frozen on a
		// mispredicted branch, or it simply has not delivered yet.
		if s.next == s.retired && s.traceDone {
			s.res.CycleBudget[BudgetDrain]++
			s.prevWasStall = false
			return // drained: not a stall
		}
		if s.havePending {
			cause = StallBranch
		} else {
			cause = StallFrontend
		}
	}
	bucket := budgetForStall(cause, s.cycle < s.iBusyUntil)
	s.res.CycleBudget[bucket]++
	s.lastBucket = bucket
	s.res.StallCycles[cause]++
	if s.traceCycle {
		s.tel.Emit(telemetry.Event{
			Cycle: s.cycle, Kind: telemetry.KindStall, Detail: uint8(cause),
		})
	}
	// Episode counting: a maximal run of equal-cause stall cycles is
	// one hazard event for the causes whose events are not counted
	// elsewhere (mispredicts and misses are counted at occurrence).
	if !s.prevWasStall || s.prevStall != cause {
		switch cause {
		case StallDependency:
			s.res.Hazards.DepEpisodes++
		case StallFP:
			s.res.Hazards.FPEpisodes++
		case StallAgen:
			s.res.Hazards.AgenEpisodes++
		}
	}
	s.prevWasStall = true
	s.prevStall = cause
}

// renameStages returns the extra front-end transit of the rename
// stage (out-of-order mode only).
func renameStages(cfg Config) int {
	if cfg.OutOfOrder {
		return 1
	}
	return 0
}

// stepIssueOOO selects up to Width ready instructions oldest-first
// from the pending (decoded-but-unissued) window, respecting the same
// structural limits as the in-order issue stage. Stall classification
// follows the oldest unissued instruction. The pending list is kept
// compact, so the per-cycle cost is bounded by the window capacity.
//
//lint:hotpath per-cycle issue stage (OOO); must not allocate
func (s *sim) stepIssueOOO() {
	issued, memIssued, brIssued := 0, 0, 0
	var cause StallCause
	blocked := false
	keep := s.pending[:0]
	for i, seq := range s.pending {
		wi := s.w.idx(seq)
		in := &s.w.in[wi]
		if issued >= s.cfg.Width {
			keep = append(keep, s.pending[i:]...)
			break
		}
		if in.HasMemory() && memIssued >= s.cfg.CachePorts {
			keep = append(keep, seq)
			continue
		}
		if in.Class == isa.Branch && brIssued >= s.cfg.BranchWidth {
			keep = append(keep, seq)
			continue
		}
		if c, ok := s.blockCauseOOO(wi); ok {
			if len(keep) == 0 && !blocked {
				cause, blocked = c, true
			}
			keep = append(keep, seq)
			continue
		}
		s.issue(seq, wi)
		s.inExecQ--
		issued++
		if in.HasMemory() {
			memIssued++
		}
		if in.Class == isa.Branch {
			brIssued++
		}
		if in.Class == isa.FP {
			s.res.UnitOps[UnitFPU]++
		} else {
			s.res.UnitOps[UnitExec]++
		}
		s.active |= 1 << UnitExecQ
		s.moved = true
	}
	s.pending = keep
	s.finishIssueAccounting(issued, cause, blocked)
}

// blockCauseOOO decides readiness from the producers captured at
// rename, resolved dynamically against the window.
//
//lint:hotpath per-instruction stall classification (OOO); must not allocate
func (s *sim) blockCauseOOO(i uint64) (StallCause, bool) {
	in := &s.w.in[i]
	if in.Class == isa.FP && s.fpuBusyUntil > s.cycle {
		return StallFP, true
	}
	if in.Class == isa.Load {
		return 0, false
	}
	if in.Class == isa.Store {
		if s.w.wflags[i]&wHasSrc1 != 0 {
			if t := s.writerReady(s.w.src1Writer[i]); t > s.cycle {
				return s.classifyWriter(s.w.src1Writer[i]), true
			}
		}
		return 0, false
	}
	if in.Class == isa.RX {
		if s.w.dataReady[i] == never {
			return StallAgen, true
		}
		if s.w.dataReady[i] > s.cycle {
			return StallMemory, true
		}
		if s.w.wflags[i]&wHasSrc1 != 0 {
			if t := s.writerReady(s.w.src1Writer[i]); t > s.cycle {
				return s.classifyWriter(s.w.src1Writer[i]), true
			}
		}
		return 0, false
	}
	if s.w.wflags[i]&wHasSrc1 != 0 {
		if t := s.writerReady(s.w.src1Writer[i]); t > s.cycle {
			return s.classifyWriter(s.w.src1Writer[i]), true
		}
	}
	if s.w.wflags[i]&wHasSrc2 != 0 {
		if t := s.writerReady(s.w.src2Writer[i]); t > s.cycle {
			return s.classifyWriter(s.w.src2Writer[i]), true
		}
	}
	return 0, false
}

// classifyWriter attributes a wait on the given producer.
//
//lint:hotpath per-writer stall classification; must not allocate
func (s *sim) classifyWriter(seq uint64) StallCause {
	if seq < s.retired {
		return StallDependency
	}
	p := s.w.idx(seq)
	if s.w.seq[p] != seq {
		return StallDependency
	}
	if s.w.in[p].Class == isa.Load {
		if s.w.dataReady[p] == never {
			return StallAgen
		}
		if s.w.dataReady[p] > s.cycle {
			return StallMemory
		}
	}
	return StallDependency
}

// blockCause reports why the window-slot-i head instruction cannot
// issue, if it cannot. Loads and stores issue without waiting for
// their own data (the machine is access-decoupled: address generation
// and cache access run ahead of the execution queue, per Fig. 2); only
// true consumers of in-flight data stall.
//
//lint:hotpath per-instruction stall classification; must not allocate
func (s *sim) blockCause(i uint64) (StallCause, bool) {
	in := &s.w.in[i]
	if in.Class == isa.Load {
		return 0, false
	}
	if in.Class == isa.Store {
		if s.regReady[in.Src1] > s.cycle { // store data not ready
			return s.classifyDep(in.Src1), true
		}
		return 0, false
	}
	if in.Class == isa.RX {
		// The memory operand must have arrived and the register
		// operand must be ready: the zSeries RX op computes at issue.
		if s.w.dataReady[i] == never {
			return StallAgen, true
		}
		if s.w.dataReady[i] > s.cycle {
			return StallMemory, true
		}
		if s.regReady[in.Src1] > s.cycle {
			return s.classifyDep(in.Src1), true
		}
		return 0, false
	}
	if in.Class == isa.FP && s.fpuBusyUntil > s.cycle {
		return StallFP, true
	}
	if in.Src1 != isa.RegNone && s.regReady[in.Src1] > s.cycle {
		return s.classifyDep(in.Src1), true
	}
	if in.Src2 != isa.RegNone && s.regReady[in.Src2] > s.cycle {
		return s.classifyDep(in.Src2), true
	}
	return 0, false
}

// classifyDep attributes a wait on register r to its producer: a load
// still in the address path is an agen stall, a load waiting on a
// cache miss is a memory stall, anything else is a plain dependency.
//
//lint:hotpath per-operand stall classification; must not allocate
func (s *sim) classifyDep(r isa.Reg) StallCause {
	if !s.haveWriter[r] {
		return StallDependency
	}
	p := s.w.idx(s.lastWriter[r])
	if s.w.in[p].Class == isa.Load {
		if s.w.dataReady[p] == never {
			return StallAgen
		}
		if s.w.dataReady[p] > s.cycle {
			return StallMemory
		}
	}
	return StallDependency
}

// issue starts execution of the instruction in window slot i at the
// current cycle.
//
//lint:hotpath per-instruction issue bookkeeping; must not allocate
func (s *sim) issue(seq, i uint64) {
	in := &s.w.in[i]
	s.w.issuedAt[i] = s.cycle
	if s.traceCycle {
		s.traceInstr(telemetry.KindIssue, seq, in)
	}
	switch in.Class {
	case isa.FP:
		// Unpipelined: the FPU is occupied for the full latency (at
		// least the E-pipe transit).
		lat := uint64(in.FPLat)
		if lat < s.execLat {
			lat = s.execLat
		}
		complete := s.cycle + lat
		s.w.complete[i] = complete
		s.fpuBusyUntil = complete
		s.regReady[in.Dst] = complete
		s.lastWriter[in.Dst] = seq
		s.haveWriter[in.Dst] = true
	case isa.Load:
		// The consumer-visible ready time is the cache data arrival;
		// completion additionally includes the E-unit pass.
		if s.w.dataReady[i] == never {
			s.w.complete[i] = never
		} else {
			s.w.complete[i] = max(s.cycle+intLat, s.w.dataReady[i])
			s.execActiveUntil = max(s.execActiveUntil, s.cycle+intLat)
		}
		s.regReady[in.Dst] = s.w.dataReady[i]
		s.lastWriter[in.Dst] = seq
		s.haveWriter[in.Dst] = true
	case isa.Store:
		if s.w.dataReady[i] == never {
			s.w.complete[i] = never
		} else {
			s.w.complete[i] = max(s.cycle+intLat, s.w.dataReady[i])
		}
		s.execActiveUntil = max(s.execActiveUntil, s.cycle+intLat)
	case isa.RX:
		// Operands arrived (memory at dataReady, register checked at
		// issue): the compute itself is a one-cycle ALU pass.
		complete := s.cycle + intLat
		s.w.complete[i] = complete
		s.regReady[in.Dst] = complete
		s.lastWriter[in.Dst] = seq
		s.haveWriter[in.Dst] = true
		s.execActiveUntil = max(s.execActiveUntil, complete)
	case isa.Branch:
		// Branches resolve at the end of the E-unit pipe: the
		// misprediction penalty grows with the pipeline depth.
		complete := s.cycle + s.execLat
		s.w.complete[i] = complete
		s.execActiveUntil = max(s.execActiveUntil, complete)
	default: // RR
		// Simple ALU results forward in one cycle independent of the
		// E-pipe depth — deep real designs keep the common ALU loop
		// single-cycle with aggressive bypassing (staggered ALUs);
		// only branch resolution, FP and memory pay the added stages.
		complete := s.cycle + intLat
		s.w.complete[i] = complete
		s.regReady[in.Dst] = complete
		s.lastWriter[in.Dst] = seq
		s.haveWriter[in.Dst] = true
		s.execActiveUntil = max(s.execActiveUntil, complete)
	}
}

// stepCacheExit completes cache accesses for memory operations leaving
// the cache pipe. Load misses block the cache (no MSHRs, as in the
// era's blocking L1 designs); stores retire into a store buffer and
// never block.
//
//lint:hotpath per-cycle cache-exit stage; must not allocate
func (s *sim) stepCacheExit() {
	for ports := 0; ports < s.cfg.CachePorts && !s.cachePipe.empty(); ports++ {
		if s.cycle < s.cacheBusyUntil {
			break
		}
		if s.cycle-s.cachePipe.headAt() < s.cacheT {
			break
		}
		seq, _ := s.cachePipe.pop()
		i := s.w.idx(seq)
		in := &s.w.in[i]
		s.active |= 1 << UnitCache
		s.moved = true
		s.res.UnitOps[UnitCache]++

		level, latFO4 := cache.L1, 0.0
		if s.cfg.Hierarchy != nil {
			level, latFO4 = s.cfg.Hierarchy.Access(in.Addr)
		}
		extra := uint64(0)
		if level != cache.L1 {
			s.res.L1Misses++
			extra = s.cfg.LatencyCycles(latFO4)
		}
		if in.Class != isa.Store {
			if in.Class == isa.Load {
				s.res.LoadCount++
			} else {
				s.res.RXCount++
			}
			s.w.dataReady[i] = s.cycle + extra
			if extra > 0 {
				if level == cache.L2 {
					s.res.Hazards.LoadL2Hits++
				} else {
					// Only memory accesses block the (otherwise
					// pipelined) cache port; L2 hits stream. With
					// MSHRs (NonBlockingCache) misses overlap freely.
					s.res.Hazards.LoadMemAccesses++
					if !s.cfg.NonBlockingCache {
						s.cacheBusyUntil = s.cycle + extra
					}
				}
			}
		} else {
			s.res.StoreCount++
			s.w.dataReady[i] = s.cycle
		}
		// Late fix-up for memory ops that issued before their data
		// arrived: completion and (for loads that are still the
		// youngest writer of their register) consumer visibility.
		if s.w.issuedAt[i] != never {
			s.w.complete[i] = max(s.w.issuedAt[i]+intLat, s.w.dataReady[i])
		}
		if in.Class == isa.Load &&
			s.haveWriter[in.Dst] && s.lastWriter[in.Dst] == seq {
			s.regReady[in.Dst] = s.w.dataReady[i]
		}
	}
}

// stepAgenAdvance moves address-generated operations into the cache
// pipe.
//
//lint:hotpath per-cycle agen advance; must not allocate
func (s *sim) stepAgenAdvance() {
	for moved := 0; moved < s.cfg.AgenWidth && !s.agenPipe.empty(); moved++ {
		if s.cycle-s.agenPipe.headAt() < s.agenTransit {
			break
		}
		if s.cachePipe.full() {
			break
		}
		seq, _ := s.agenPipe.pop()
		s.cachePipe.push(seq, s.cycle)
		s.active |= 1 << UnitAgen
		s.moved = true
		s.res.UnitOps[UnitAgen]++
	}
}

// stepAgenQ launches queued memory operations into address generation
// once their base registers are ready (in order).
//
//lint:hotpath per-cycle agen-queue stage; must not allocate
func (s *sim) stepAgenQ() {
	for moved := 0; moved < s.cfg.AgenWidth && !s.agenQ.empty(); moved++ {
		seq := s.agenQ.headSeq()
		i := s.w.idx(seq)
		// The base producer was captured at decode exit, so the
		// address path runs fully decoupled from issue in both modes.
		if s.w.wflags[i]&wHasBase != 0 {
			if t := s.writerReady(s.w.baseWriter[i]); t == never || t > s.cycle {
				break
			}
		}
		if s.agenPipe.full() {
			break
		}
		s.agenQ.pop()
		s.agenPipe.push(seq, s.cycle)
		s.active |= 1 << UnitAgenQ
		s.moved = true
		s.res.UnitOps[UnitAgenQ]++
	}
}

// stepDecodeExit routes decoded instructions into the execution queue
// (and memory operations additionally into the address queue).
//
//lint:hotpath per-cycle decode-exit stage; must not allocate
func (s *sim) stepDecodeExit() {
	for moved := 0; moved < s.cfg.Width && !s.decodePipe.empty(); moved++ {
		if s.cycle-s.decodePipe.headAt() < s.decTransit {
			break
		}
		if s.inExecQ >= s.cfg.ExecQCap {
			break
		}
		seq := s.decodePipe.headSeq()
		i := s.w.idx(seq)
		hasMem := s.w.in[i].HasMemory()
		if hasMem && s.agenQ.full() {
			break
		}
		s.decodePipe.pop()
		s.rename(seq, i)
		if hasMem {
			s.agenQ.push(seq, s.cycle)
			s.active |= 1 << UnitAgenQ
		}
		s.decoded++
		s.inExecQ++
		if s.cfg.OutOfOrder {
			//lint:ignore allocfree pending is preallocated to WindowCap in Run and occupancy never exceeds the window, so this append cannot grow
			s.pending = append(s.pending, seq)
		}
		s.res.UnitOps[UnitDecode]++
		s.res.UnitOps[UnitExecQ]++
		s.active |= 1 << UnitExecQ
		s.moved = true
	}
}

// stepFetch brings new instructions from the trace into decode,
// consulting the branch predictor and freezing on mispredictions (the
// machine does not fetch down the wrong path; the freeze lasts until
// the branch resolves, which reproduces the misprediction penalty
// exactly).
//
//lint:hotpath per-cycle fetch stage; must not allocate
func (s *sim) stepFetch() {
	if s.havePending || s.traceDone || s.cycle < s.redirectHoldTo {
		return
	}
	if s.cycle < s.iBusyUntil {
		return
	}
	for s.fetchedNow < s.cfg.Width {
		if s.next-s.retired >= s.w.num {
			break
		}
		if s.decodePipe.full() {
			break
		}
		// Materialize the next record straight into the window slot it
		// will occupy: the packed fast path writes the SoA columns into
		// the slot with no intermediate copy.
		i := s.w.idx(s.next)
		in := &s.w.in[i]
		if s.psrc != nil {
			if !s.psrc.NextInto(in) {
				s.traceDone = true
				break
			}
		} else {
			v, ok := s.src.Next()
			if !ok {
				s.traceDone = true
				break
			}
			*in = v
		}
		// Instruction-cache model: a new code line must be resident;
		// a miss stalls fetch for the configured time.
		if s.cfg.ICache != nil {
			line := in.PC &^ 63
			if line != s.lastFetchLine {
				s.lastFetchLine = line
				if !s.cfg.ICache.Access(in.PC) {
					s.res.ICacheMisses++
					s.iBusyUntil = s.cycle + s.cfg.LatencyCycles(s.cfg.ICacheMissFO4)
				}
			}
		}
		seq := s.next
		s.next++
		s.lastProgress = s.cycle
		s.w.seq[i] = seq
		s.w.dataReady[i] = never
		s.w.issuedAt[i] = never
		s.w.complete[i] = never
		s.w.wflags[i] = 0
		if s.traceCycle {
			s.traceInstr(telemetry.KindFetch, seq, in)
		}
		s.decodePipe.push(seq, s.cycle)
		s.fetchedNow++
		s.res.UnitOps[UnitFetch]++

		if in.Class == isa.Branch {
			s.res.Branches++
			if in.Taken {
				s.res.TakenBranches++
			}
			pred := in.Taken
			if s.cfg.Predictor != nil {
				pred = s.cfg.Predictor.Predict(in.PC)
				s.cfg.Predictor.Update(in.PC, in.Taken)
			}
			if pred == in.Taken {
				s.res.PredictorCorrect++
				if in.Taken {
					hold := uint64(0)
					if s.cfg.RedirectBubble {
						// Correctly predicted taken branch: one-cycle
						// fetch redirect bubble.
						hold = 1
					}
					// The redirect needs the target: a BTB miss holds
					// fetch until decode computes it.
					if s.cfg.BTB != nil {
						if _, hit := s.cfg.BTB.Lookup(in.PC); !hit {
							s.res.BTBMisses++
							hold += uint64(s.cfg.BTBMissBubbles)
						}
						s.cfg.BTB.Update(in.PC, in.Target)
					}
					if hold > 0 {
						s.redirectHoldTo = s.cycle + 1 + hold
						break
					}
				}
			} else {
				s.res.Hazards.BranchMispredicts++
				s.pendingBranch = seq
				s.havePending = true
				break
			}
		}
	}
	if s.fetchedNow > 0 {
		s.active |= 1 << UnitFetch
		s.moved = true
	}
}

// recordActivity accumulates per-unit switching activity for the
// power monitor: a unit is active on a cycle when its latches clock
// new values (instructions advanced through it). With
// WrongPathActivity, misprediction-recovery cycles charge the front
// end at full rate (wrong-path fetch and decode).
//
//lint:hotpath per-cycle activity accounting; must not allocate
func (s *sim) recordActivity() {
	a := s.active
	if s.cfg.WrongPathActivity && s.havePending {
		a |= 1<<UnitFetch | 1<<UnitDecode
		s.res.UnitOps[UnitFetch] += uint64(s.cfg.Width)
		s.res.UnitOps[UnitDecode] += uint64(s.cfg.Width)
		if s.cfg.OutOfOrder {
			a |= 1 << UnitRename
			s.res.UnitOps[UnitRename] += uint64(s.cfg.Width)
		}
	}
	if s.decodePipe.anyMoving(s.cycle, s.decTransit) {
		a |= 1 << UnitDecode
	}
	if s.agenTransit > 0 && s.agenPipe.anyMoving(s.cycle, s.agenTransit) {
		a |= 1 << UnitAgen
	}
	if s.cachePipe.anyMoving(s.cycle, s.cacheT) {
		a |= 1 << UnitCache
	}
	if s.cycle < s.execActiveUntil {
		a |= 1 << UnitExec
	}
	if s.cycle < s.fpuBusyUntil {
		a |= 1 << UnitFPU
	}
	s.active = a
	for m := a; m != 0; m &= m - 1 {
		s.res.UnitActive[bits.TrailingZeros32(m)]++
	}
	if s.traceCycle {
		s.traceGate()
	}
}

// rename records producers in the decode-time writer table. In both
// execution modes, memory operations capture their base-register
// producer here — decode exit is exact for that purpose: every older
// instruction has already claimed its destination, no younger one has
// — which lets the address path run decoupled from issue. In
// out-of-order mode the full source operands are captured too (the
// register-renaming step proper), eliminating WAW and WAR hazards.
//
//lint:hotpath runs at decode exit for every instruction; must not allocate
func (s *sim) rename(seq, i uint64) {
	in := &s.w.in[i]
	if in.HasMemory() {
		if w, ok := s.captureWriter(in.BaseReg()); ok {
			s.w.baseWriter[i] = w
			s.w.wflags[i] |= wHasBase
		}
	}
	if s.cfg.OutOfOrder {
		switch in.Class {
		case isa.Store, isa.RX:
			if w, ok := s.captureWriter(in.Src1); ok {
				s.w.src1Writer[i] = w
				s.w.wflags[i] |= wHasSrc1
			}
		case isa.RR, isa.FP, isa.Branch:
			if w, ok := s.captureWriter(in.Src1); ok {
				s.w.src1Writer[i] = w
				s.w.wflags[i] |= wHasSrc1
			}
			if w, ok := s.captureWriter(in.Src2); ok {
				s.w.src2Writer[i] = w
				s.w.wflags[i] |= wHasSrc2
			}
		}
		s.res.UnitOps[UnitRename]++
		s.active |= 1 << UnitRename
	}
	if in.WritesReg() {
		s.renameTable[in.Dst] = seq
		s.haveRename[in.Dst] = true
	}
}

// captureWriter looks up the youngest in-flight producer of r in the
// rename table. A method rather than a closure inside rename, so the
// decode-exit path stays visibly closure-free and the allocfree
// analyzer can vouch for it.
//
//lint:hotpath called up to three times per renamed instruction; must not allocate
func (s *sim) captureWriter(r isa.Reg) (uint64, bool) {
	if r == isa.RegNone || !s.haveRename[r] {
		return 0, false
	}
	return s.renameTable[r], true
}

// writerReady returns when the result of the instruction with the
// given sequence number becomes readable, or 0 if it has already
// retired (its window slot may have been reused).
//
//lint:hotpath called per ready-check during issue; must not allocate
func (s *sim) writerReady(seq uint64) uint64 {
	if seq < s.retired {
		return 0
	}
	i := s.w.idx(seq)
	if s.w.seq[i] != seq {
		return 0
	}
	if s.slotClass(i) == isa.Load {
		return s.w.dataReady[i]
	}
	return s.w.complete[i]
}
