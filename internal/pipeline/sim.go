package pipeline

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

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

// Run aborts. Both are returned wrapped with the cycle on which the run
// stopped; test with errors.Is.
var (
	// ErrMaxCycles: the run exceeded Config.MaxCycles.
	ErrMaxCycles = errors.New("pipeline: exceeded MaxCycles")
	// ErrNoProgress: no instruction was fetched or retired for
	// watchdogCycles cycles (an engine deadlock).
	ErrNoProgress = errors.New("pipeline: no forward progress (engine deadlock)")
)

// sim is the engine state for one run. The per-slot and per-unit
// state lives in flat struct-of-arrays (window, pipe in unit.go): the
// hot loop indexes contiguous arrays instead of chasing per-entry
// pointers. Instruction fields are never copied into the window: every
// stage reads the packed trace columns fc by sequence number. The
// Result res is allocated apart and points back at nothing here, so a
// returned Result never keeps the engine — its window, pipes or the
// model outcomes — alive. The engine touches no live model: it reads
// what the models did from the replayed outcome column.
type sim struct {
	cfg  Config
	out  *Outcomes
	res  *Result
	psrc *trace.PackedStream
	fc   trace.Columns

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

	// Observers: tel mirrors cfg.Tracer and inv cfg.Invariants; nil
	// disables every emission or check site behind a single branch.
	tel *telemetry.Tracer
	inv *invariant.Recorder

	// Interval-sampling state: the cumulative counters at the last
	// sample boundary.
	lastSampleActive [NumUnits]uint64
	lastSampleOps    [NumUnits]uint64
	lastSampleRet    uint64

	// Stall-episode and activity state of the last stepped cycle.
	// active is a bitmask of units whose latches switched (bit u =
	// Unit u).
	prevStall    StallCause
	prevWasStall bool
	active       uint32

	// Skip-ahead state (see skipahead.go): skip arms span
	// fast-forwarding; lastBucket is the budget bucket of the last
	// stall cycle, for closed-form replication.
	skip       bool
	lastBucket CycleBucket
}

// Run simulates the stream to completion on the configured machine,
// with models built cold from its descriptions, and returns the
// measured Result. A *trace.PackedStream is simulated in place; any
// other stream, which must end, is first drained into a packed trace,
// so an invalid record is a returned error.
func Run(cfg Config, src trace.Stream) (*Result, error) {
	m, err := NewModels(&cfg)
	if err != nil {
		return nil, err
	}
	return RunWith(cfg, m, src)
}

// RunWith is Run on the given models in their current — typically
// warmed — state: it packs the stream, replays it into the models
// (training them further) and simulates on the outcomes, so warm-up
// traffic is excluded from the Result. The models must have been built
// from cfg's descriptions.
func RunWith(cfg Config, m *Models, src trace.Stream) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m.spec != cfg.ModelSpec() {
		return nil, errModelMismatch
	}
	ps, err := packInput(src)
	if err != nil {
		return nil, err
	}
	return RunReplayed(cfg, m.Replay(ps), ps)
}

// RunReplayed simulates the packed stream on outcomes that Replay
// recorded over exactly the stream's remaining window, with models
// built from cfg's descriptions; any other outcomes are refused. It
// touches no model, so one Outcomes value serves a run at every depth.
func RunReplayed(cfg Config, o *Outcomes, src *trace.PackedStream) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if t, lo, hi := src.Trace(); o.spec != cfg.ModelSpec() || o.trace != t || o.lo != lo || o.hi != hi {
		return nil, errModelMismatch
	}
	return newSim(cfg, o, src).run()
}

// packInput returns src as a packed cursor, draining any stream that is
// not one already (see trace.PackAll).
func packInput(src trace.Stream) (*trace.PackedStream, error) {
	if ps, ok := src.(*trace.PackedStream); ok {
		return ps, nil
	}
	p, err := trace.PackAll(src)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	return p.Stream(), nil
}

// newSim builds the engine state for one run of a validated config on
// its models' outcomes.
func newSim(cfg Config, o *Outcomes, src *trace.PackedStream) *sim {
	t, pos, _ := src.Trace()
	s := &sim{
		cfg:         cfg,
		out:         o,
		psrc:        src,
		fc:          t.Columns(pos),
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
		// Skip-ahead is exact unless something needs every in-span
		// cycle: the tracer emits per-cycle events, and the out-of-order
		// window re-scans pending instructions per cycle. Invariant
		// checks and activity sampling ride along (see skipahead.go).
		// EnginePerCycle is the same body with skip-ahead off.
		skip: cfg.Engine != EnginePerCycle && !cfg.OutOfOrder && cfg.Tracer == nil,
	}
	if cfg.OutOfOrder {
		s.pending = make([]uint64, 0, cfg.WindowCap)
	}
	s.res = &Result{Config: cfg, ResultData: ResultData{IssueHist: make([]uint64, cfg.Width+1)}, Traffic: o.traffic}
	return s
}

// run simulates to completion and finishes the Result.
func (s *sim) run() (*Result, error) {
	err := s.loop()
	// Keep the external cursor consistent with the records consumed, for
	// callers that continue iterating the stream after the run.
	s.psrc.Skip(int(s.next))
	if err != nil {
		return nil, fmt.Errorf("%w at cycle %d", err, s.cycle)
	}
	s.res.Cycles = s.cycle
	if s.inv != nil {
		s.checkRunInvariants()
	}
	return s.res, nil
}

// loop is the cycle body. Each cycle processes the stages back to
// front, so an instruction traverses at most one stage per cycle:
// branch resolution, retire, issue and its cycle-budget accounting,
// cache exit, agen advance, agen queue, decode exit (with rename),
// fetch, then activity accounting and the observer hooks. After a
// quiet stall cycle, skipAhead replicates it over the span in which no
// time gate can fire; with skip-ahead off (EnginePerCycle, a tracer,
// the out-of-order window) every cycle is stepped.
//
// Observers are nil-checked hooks. The tracer emits fetch, issue,
// retire, stall and clock-gate events on the cycles it samples; the
// invariant hook tests the per-cycle capacity laws with the inlined
// cycleLawsHold and calls the recording checkCycleInvariants only on a
// breach; the sampling hook takes the interval sample on each
// SampleInterval boundary (skipahead.go explains why replicated cycles
// need neither).
//
//lint:hotpath the per-cycle simulator body; must not allocate
func (s *sim) loop() error {
	_, lo, hi := s.psrc.Trace()
	var (
		w   = &s.w
		res = s.res

		cls   = s.fc.Class
		flg   = s.fc.Flags
		base  = s.fc.Base
		outc  = s.out.col
		total = uint64(hi - lo)

		width    = s.cfg.Width
		ports    = s.cfg.CachePorts
		bwidth   = s.cfg.BranchWidth
		agenW    = s.cfg.AgenWidth
		execQCap = s.cfg.ExecQCap
		decT     = s.decTransit
		agenT    = s.agenTransit
		cacheT   = s.cacheT
		nonBlock = s.cfg.NonBlockingCache
		redirect = s.cfg.RedirectBubble
		btbBub   = uint64(s.cfg.BTBMissBubbles)
		maxCyc   = s.cfg.MaxCycles
		wrong    = s.cfg.WrongPathActivity
		ooo      = s.cfg.OutOfOrder
		skip     = s.skip
		wnum     = w.num
		tel      = s.tel
		inv      = s.inv
		sampleIv = s.cfg.SampleInterval

		// FO4→cycle conversions are pure functions of the configuration;
		// precompute the three latencies an outcome can charge.
		iMissCycles = s.cfg.LatencyCycles(s.cfg.ICacheMissFO4)
		l2Cycles    = s.cfg.LatencyCycles(s.cfg.Hierarchy.L2LatencyFO4)
		memCycles   = s.cfg.LatencyCycles(s.cfg.Hierarchy.MemLatencyFO4)
	)

	for !s.traceDone || s.retired != s.next {
		s.cycle++
		cyc := s.cycle
		if maxCyc > 0 && cyc > maxCyc {
			return ErrMaxCycles
		}
		if cyc-s.lastProgress > watchdogCycles {
			return ErrNoProgress
		}

		traced := tel.CycleEnabled(cyc)
		var active uint32
		moved := false
		wasDone := s.traceDone
		retiredNow, fetched := 0, 0

		// Resolve a pending mispredicted branch: fetch resumes the
		// following cycle, so the refill sees the full decode-to-execute
		// transit.
		if s.havePending && w.complete[w.idx(s.pendingBranch)] < cyc {
			s.havePending = false
		}

		// Retire.
		if s.retired < s.decoded {
			for s.retired < s.decoded && retiredNow < width {
				i := w.idx(s.retired)
				if w.issuedAt[i] == never || w.complete[i] >= cyc {
					break
				}
				if traced {
					s.traceInstr(telemetry.KindRetire, s.retired)
				}
				s.retired++
				retiredNow++
				res.Instructions++
				res.UnitOps[UnitRetire]++
				s.lastProgress = cyc
			}
			if retiredNow > 0 {
				active |= 1 << UnitRetire
				moved = true
			}
		}

		// Issue: strictly in program order for the in-order model,
		// oldest-ready-first from the pending window for the
		// out-of-order one. Memory ops are bounded by the cache ports,
		// branches by the branch unit.
		issued := 0
		var cause StallCause
		blocked := false
		if ooo {
			issued, cause, blocked = s.issueOOO(traced)
		} else {
			memIssued, brIssued := 0, 0
			for issued < width && s.issued < s.decoded {
				seq := s.issued
				c := isa.Class(cls[seq])
				hasMem := flg[seq]&trace.FlagHasMem != 0
				if hasMem && memIssued >= ports {
					break
				}
				if c == isa.Branch && brIssued >= bwidth {
					break
				}
				i := w.idx(seq)
				if cc, until := s.blockCause(seq, i, c); until != 0 {
					cause, blocked = cc, true
					break
				}
				if traced {
					s.traceInstr(telemetry.KindIssue, seq)
				}
				s.issue(seq, i, c)
				s.issued++
				s.inExecQ--
				issued++
				if hasMem {
					memIssued++
				}
				if c == isa.Branch {
					brIssued++
				}
				if c == isa.FP {
					res.UnitOps[UnitFPU]++
				} else {
					res.UnitOps[UnitExec]++
				}
			}
		}

		// Cycle budget: every cycle lands in exactly one bucket here,
		// which makes the budget exhaustive and exclusive.
		if issued > 0 {
			active |= 1 << UnitExecQ
			moved = true
			res.IssueCycles++
			res.IssueHist[issued]++
			res.CycleBudget[BudgetUsefulIssue]++
			s.prevWasStall = false
		} else {
			res.IssueHist[0]++
			drained := false
			if !blocked {
				// Execution queue empty: drained, the front end frozen on
				// a mispredicted branch, or not yet delivered.
				if s.next == s.retired && s.traceDone {
					res.CycleBudget[BudgetDrain]++
					s.prevWasStall = false
					drained = true
				} else if s.havePending {
					cause = StallBranch
				} else {
					cause = StallFrontend
				}
			}
			if !drained {
				bucket := budgetForStall(cause, cyc < s.iBusyUntil)
				res.CycleBudget[bucket]++
				s.lastBucket = bucket
				res.StallCycles[cause]++
				if traced {
					tel.Emit(telemetry.Event{Cycle: cyc, Kind: telemetry.KindStall, Detail: uint8(cause)})
				}
				// Episode counting: a maximal run of equal-cause stall
				// cycles is one hazard event for the causes whose events
				// are not counted elsewhere (mispredicts and misses are
				// counted at occurrence).
				if !s.prevWasStall || s.prevStall != cause {
					switch cause {
					case StallDependency:
						res.Hazards.DepEpisodes++
					case StallFP:
						res.Hazards.FPEpisodes++
					case StallAgen:
						res.Hazards.AgenEpisodes++
					}
				}
				s.prevWasStall = true
				s.prevStall = cause
			}
		}

		// Cache exit. Load misses block the cache (no MSHRs, as in the
		// era's blocking L1 designs) unless NonBlockingCache; stores
		// retire into a store buffer and never block.
		if s.cachePipe.size > 0 {
			for p := 0; p < ports && s.cachePipe.size > 0; p++ {
				if cyc < s.cacheBusyUntil {
					break
				}
				if cyc-s.cachePipe.headAt() < cacheT {
					break
				}
				seq, _ := s.cachePipe.pop()
				i := w.idx(seq)
				c := isa.Class(cls[seq])
				active |= 1 << UnitCache
				moved = true
				res.UnitOps[UnitCache]++

				level := cache.Level(outc[seq] & outLevel)
				extra := uint64(0)
				if level != cache.L1 {
					res.L1Misses++
					if level == cache.L2 {
						extra = l2Cycles
					} else {
						extra = memCycles
					}
				}
				if c != isa.Store {
					if c == isa.Load {
						res.LoadCount++
					} else {
						res.RXCount++
					}
					w.dataReady[i] = cyc + extra
					if extra > 0 {
						if level == cache.L2 {
							res.Hazards.LoadL2Hits++
						} else {
							// Only memory accesses block the (otherwise
							// pipelined) cache port; L2 hits stream.
							res.Hazards.LoadMemAccesses++
							if !nonBlock {
								s.cacheBusyUntil = cyc + extra
							}
						}
					}
				} else {
					res.StoreCount++
					w.dataReady[i] = cyc
				}
				// Late fix-up for memory ops that issued before their
				// data arrived: completion and (for loads that are still
				// the youngest writer of their register) consumer
				// visibility.
				if w.issuedAt[i] != never {
					w.complete[i] = max(w.issuedAt[i]+intLat, w.dataReady[i])
				}
				if c == isa.Load && flg[seq]&trace.FlagWritesReg != 0 {
					d := s.fc.Dst[seq]
					if s.haveWriter[d] && s.lastWriter[d] == seq {
						s.regReady[d] = w.dataReady[i]
					}
				}
			}
		}

		// Agen advance into the cache pipe.
		if s.agenPipe.size > 0 {
			for mv := 0; mv < agenW && s.agenPipe.size > 0; mv++ {
				if cyc-s.agenPipe.headAt() < agenT {
					break
				}
				if s.cachePipe.full() {
					break
				}
				seq, _ := s.agenPipe.pop()
				s.cachePipe.push(seq, cyc)
				active |= 1 << UnitAgen
				moved = true
				res.UnitOps[UnitAgen]++
			}
		}

		// Agen queue: launch memory ops in order once the base producer
		// captured at decode exit is ready, so the address path runs
		// decoupled from issue in both modes.
		if s.agenQ.size > 0 {
			for mv := 0; mv < agenW && s.agenQ.size > 0; mv++ {
				seq := s.agenQ.headSeq()
				i := w.idx(seq)
				if w.wflags[i]&wHasBase != 0 {
					if rt := s.writerReady(w.baseWriter[i]); rt == never || rt > cyc {
						break
					}
				}
				if s.agenPipe.full() {
					break
				}
				s.agenQ.pop()
				s.agenPipe.push(seq, cyc)
				active |= 1 << UnitAgenQ
				moved = true
				res.UnitOps[UnitAgenQ]++
			}
		}

		// Decode exit into the execution queue (memory ops also into the
		// address queue), with rename: every memory op captures its base
		// producer from the decode-time writer table — exact here, since
		// every older instruction has claimed its destination and no
		// younger one has — and the out-of-order model captures the full
		// source producers too (renaming proper: no WAW or WAR hazards).
		if s.decodePipe.size > 0 {
			for mv := 0; mv < width && s.decodePipe.size > 0; mv++ {
				if cyc-s.decodePipe.headAt() < decT {
					break
				}
				if s.inExecQ >= execQCap {
					break
				}
				seq := s.decodePipe.headSeq()
				i := w.idx(seq)
				hasMem := flg[seq]&trace.FlagHasMem != 0
				if hasMem && s.agenQ.full() {
					break
				}
				s.decodePipe.pop()
				if hasMem {
					if b := base[seq]; b != isa.RegNone && s.haveRename[b] {
						w.baseWriter[i] = s.renameTable[b]
						w.wflags[i] |= wHasBase
					}
				}
				if ooo {
					s.renameSources(seq, i)
					active |= 1 << UnitRename
				}
				if flg[seq]&trace.FlagWritesReg != 0 {
					d := s.fc.Dst[seq]
					s.renameTable[d] = seq
					s.haveRename[d] = true
				}
				if hasMem {
					s.agenQ.push(seq, cyc)
					active |= 1 << UnitAgenQ
				}
				s.decoded++
				s.inExecQ++
				if ooo {
					//lint:ignore allocfree pending is preallocated to WindowCap in newSim and occupancy never exceeds the window, so this append cannot grow
					s.pending = append(s.pending, seq)
				}
				res.UnitOps[UnitDecode]++
				res.UnitOps[UnitExecQ]++
				active |= 1 << UnitExecQ
				moved = true
			}
		}

		// Fetch, reading each branch's replayed prediction and freezing
		// on mispredictions: the machine does not fetch down the wrong
		// path, and the freeze lasts until the branch resolves, which
		// reproduces the misprediction penalty exactly.
		if !s.havePending && !s.traceDone && cyc >= s.redirectHoldTo && cyc >= s.iBusyUntil {
			for fetched < width {
				if s.next-s.retired >= wnum {
					break
				}
				if s.decodePipe.full() {
					break
				}
				seq := s.next
				if seq >= total {
					s.traceDone = true
					break
				}
				// Instruction-cache model: a new code line must be
				// resident; a miss stalls fetch for the configured time.
				if outc[seq]&outICacheMiss != 0 {
					res.ICacheMisses++
					s.iBusyUntil = cyc + iMissCycles
				}
				i := w.idx(seq)
				s.next++
				s.lastProgress = cyc
				w.seq[i] = seq
				w.dataReady[i] = never
				w.issuedAt[i] = never
				w.complete[i] = never
				w.wflags[i] = 0
				if traced {
					s.traceInstr(telemetry.KindFetch, seq)
				}
				s.decodePipe.push(seq, cyc)
				fetched++
				res.UnitOps[UnitFetch]++

				if isa.Class(cls[seq]) == isa.Branch {
					res.Branches++
					taken := flg[seq]&trace.FlagTaken != 0
					if taken {
						res.TakenBranches++
					}
					if outc[seq]&outMispredict == 0 {
						res.PredictorCorrect++
						if taken {
							// Correctly predicted taken branch: an optional
							// one-cycle redirect bubble, plus the BTB-miss
							// hold until decode computes the target.
							hold := uint64(0)
							if redirect {
								hold = 1
							}
							if outc[seq]&outBTBMiss != 0 {
								res.BTBMisses++
								hold += btbBub
							}
							if hold > 0 {
								s.redirectHoldTo = cyc + 1 + hold
								break
							}
						}
					} else {
						res.Hazards.BranchMispredicts++
						s.pendingBranch = seq
						s.havePending = true
						break
					}
				}
			}
			if fetched > 0 {
				active |= 1 << UnitFetch
				moved = true
			}
		}

		// Activity accounting for the power monitor: a unit is active
		// on a cycle when its latches clock new values. With
		// WrongPathActivity, misprediction-recovery cycles charge the
		// front end at full rate (wrong-path fetch and decode).
		if wrong && s.havePending {
			active |= 1<<UnitFetch | 1<<UnitDecode
			res.UnitOps[UnitFetch] += uint64(width)
			res.UnitOps[UnitDecode] += uint64(width)
			if ooo {
				active |= 1 << UnitRename
				res.UnitOps[UnitRename] += uint64(width)
			}
		}
		if s.decodePipe.anyMoving(cyc, decT) {
			active |= 1 << UnitDecode
		}
		if agenT > 0 && s.agenPipe.anyMoving(cyc, agenT) {
			active |= 1 << UnitAgen
		}
		if s.cachePipe.anyMoving(cyc, cacheT) {
			active |= 1 << UnitCache
		}
		if cyc < s.execActiveUntil {
			active |= 1 << UnitExec
		}
		if cyc < s.fpuBusyUntil {
			active |= 1 << UnitFPU
		}
		s.active = active
		for m := active; m != 0; m &= m - 1 {
			res.UnitActive[bits.TrailingZeros32(m)]++
		}
		if traced {
			tel.Emit(telemetry.Event{Cycle: cyc, Kind: telemetry.KindGate, Arg: uint64(active)})
		}

		if occ := int(s.next - s.retired); occ > res.MaxWindowOccupied {
			res.MaxWindowOccupied = occ
		}
		// Observer hooks. A breach takes the out-of-line recording path.
		breached := false
		if inv != nil && !s.cycleLawsHold(fetched, retiredNow) {
			breached = s.checkCycleInvariants(fetched, retiredNow)
		}
		if sampleIv > 0 && cyc%sampleIv == 0 {
			s.takeSample()
		}
		// A quiet cycle mutated no machine state: nothing was fetched,
		// moved between stages, issued, retired or touched the cache,
		// and the trace-end transition did not fire. Only branch
		// resolution may have flipped havePending, and the
		// post-resolution state is itself stable — a quiet stall
		// cycle's accounting therefore replicates verbatim until the
		// next time-gated threshold. A breaching cycle is never
		// replicated: per-cycle stepping would record the breach again
		// on every frozen cycle.
		if skip && !moved && s.traceDone == wasDone && !breached && s.prevWasStall {
			s.skipAhead()
		}
	}
	return nil
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

// renameStages returns the extra front-end transit of the rename
// stage (out-of-order mode only).
func renameStages(cfg Config) int {
	if cfg.OutOfOrder {
		return 1
	}
	return 0
}

// issueOOO selects up to Width ready instructions oldest-first from
// the pending (decoded-but-unissued) window, respecting the same
// structural limits as in-order issue, and returns the issue count and
// the stall classification, which follows the oldest unissued
// instruction. The pending list is kept compact, so the per-cycle cost
// is bounded by the window capacity.
//
//lint:hotpath per-cycle issue stage (OOO); must not allocate
func (s *sim) issueOOO(traced bool) (issued int, cause StallCause, blocked bool) {
	memIssued, brIssued := 0, 0
	keep := s.pending[:0]
	for k, seq := range s.pending {
		if issued >= s.cfg.Width {
			keep = append(keep, s.pending[k:]...)
			break
		}
		c := isa.Class(s.fc.Class[seq])
		hasMem := s.fc.Flags[seq]&trace.FlagHasMem != 0
		if hasMem && memIssued >= s.cfg.CachePorts {
			keep = append(keep, seq)
			continue
		}
		if c == isa.Branch && brIssued >= s.cfg.BranchWidth {
			keep = append(keep, seq)
			continue
		}
		wi := s.w.idx(seq)
		if cc, ok := s.blockCauseOOO(wi, c); ok {
			if len(keep) == 0 && !blocked {
				cause, blocked = cc, true
			}
			keep = append(keep, seq)
			continue
		}
		if traced {
			s.traceInstr(telemetry.KindIssue, seq)
		}
		s.issue(seq, wi, c)
		s.inExecQ--
		issued++
		if hasMem {
			memIssued++
		}
		if c == isa.Branch {
			brIssued++
		}
		if c == isa.FP {
			s.res.UnitOps[UnitFPU]++
		} else {
			s.res.UnitOps[UnitExec]++
		}
	}
	s.pending = keep
	return issued, cause, blocked
}

// blockCauseOOO decides readiness of the class-c instruction in window
// slot i from the producers captured at rename, resolved dynamically
// against the window.
//
//lint:hotpath per-instruction stall classification (OOO); must not allocate
func (s *sim) blockCauseOOO(i uint64, c isa.Class) (StallCause, bool) {
	if c == isa.FP && s.fpuBusyUntil > s.cycle {
		return StallFP, true
	}
	switch c {
	case isa.Load:
		return 0, false
	case isa.RX:
		if s.w.dataReady[i] == never {
			return StallAgen, true
		}
		if s.w.dataReady[i] > s.cycle {
			return StallMemory, true
		}
	}
	if s.w.wflags[i]&wHasSrc1 != 0 {
		if t := s.writerReady(s.w.src1Writer[i]); t > s.cycle {
			return s.classifyWriter(s.w.src1Writer[i]), true
		}
	}
	if s.w.wflags[i]&wHasSrc2 != 0 { // captured for RR, FP and Branch only
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
	if isa.Class(s.fc.Class[seq]) == isa.Load {
		if s.w.dataReady[p] == never {
			return StallAgen
		}
		if s.w.dataReady[p] > s.cycle {
			return StallMemory
		}
	}
	return StallDependency
}

// blockCause reports why the class-c in-order issue head (sequence
// number seq, window slot i) cannot issue, and until, the earliest
// cycle at which that answer can change: the unblocking dataReady or
// fpuBusyUntil threshold, or the operand wait's (see operandWait). A
// wait that only another stage's movement can end gives never; until
// is 0 when the head can issue. Loads and stores issue without waiting
// for their own data (the machine is access-decoupled: address
// generation and cache access run ahead of the execution queue, per
// Fig. 2); only true consumers of in-flight data stall.
//
//lint:hotpath per-instruction stall classification; must not allocate
func (s *sim) blockCause(seq, i uint64, c isa.Class) (cause StallCause, until uint64) {
	switch c {
	case isa.Load:
		return 0, 0
	case isa.Store: // store data
		return s.operandWait(s.fc.Src1[seq])
	case isa.RX:
		// The memory operand must have arrived and the register operand
		// must be ready: the zSeries RX op computes at issue.
		if s.w.dataReady[i] == never {
			return StallAgen, never
		}
		if s.w.dataReady[i] > s.cycle {
			return StallMemory, s.w.dataReady[i]
		}
		return s.operandWait(s.fc.Src1[seq])
	}
	if c == isa.FP && s.fpuBusyUntil > s.cycle {
		return StallFP, s.fpuBusyUntil
	}
	if cause, until := s.operandWait(s.fc.Src1[seq]); until != 0 {
		return cause, until
	}
	return s.operandWait(s.fc.Src2[seq])
}

// operandWait attributes an in-order wait on source register r to its
// producer, lastWriter[r], and returns the cycle at which the wait
// ends — regReady[r] — or, for a load whose data is on its way, at
// which it turns from a memory stall into a dependency one. until is 0
// when r is ready.
//
//lint:hotpath per-operand stall classification; must not allocate
func (s *sim) operandWait(r isa.Reg) (cause StallCause, until uint64) {
	if r == isa.RegNone || s.regReady[r] <= s.cycle {
		return 0, 0
	}
	p := s.lastWriter[r]
	if cause = s.classifyWriter(p); cause == StallMemory {
		return cause, min(s.regReady[r], s.w.dataReady[s.w.idx(p)])
	}
	return cause, s.regReady[r]
}

// issue starts execution of the class-c instruction seq in window slot
// i at the current cycle.
//
//lint:hotpath per-instruction issue bookkeeping; must not allocate
func (s *sim) issue(seq, i uint64, c isa.Class) {
	s.w.issuedAt[i] = s.cycle
	switch c {
	case isa.FP:
		// Unpipelined: the FPU is occupied for the full latency (at
		// least the E-pipe transit).
		lat := uint64(s.fc.FPLat[seq])
		if lat < s.execLat {
			lat = s.execLat
		}
		complete := s.cycle + lat
		s.w.complete[i] = complete
		s.fpuBusyUntil = complete
		s.setWriter(seq, complete)
	case isa.Load:
		// The consumer-visible ready time is the cache data arrival;
		// completion additionally includes the E-unit pass.
		if s.w.dataReady[i] == never {
			s.w.complete[i] = never
		} else {
			s.w.complete[i] = max(s.cycle+intLat, s.w.dataReady[i])
			s.execActiveUntil = max(s.execActiveUntil, s.cycle+intLat)
		}
		s.setWriter(seq, s.w.dataReady[i])
	case isa.Store:
		if s.w.dataReady[i] == never {
			s.w.complete[i] = never
		} else {
			s.w.complete[i] = max(s.cycle+intLat, s.w.dataReady[i])
		}
		s.execActiveUntil = max(s.execActiveUntil, s.cycle+intLat)
	case isa.Branch:
		// Branches resolve at the end of the E-unit pipe: the
		// misprediction penalty grows with the pipeline depth.
		complete := s.cycle + s.execLat
		s.w.complete[i] = complete
		s.execActiveUntil = max(s.execActiveUntil, complete)
	default: // RR, RX
		// Simple ALU results forward in one cycle independent of the
		// E-pipe depth — deep real designs keep the common ALU loop
		// single-cycle with aggressive bypassing (staggered ALUs); only
		// branch resolution, FP and memory pay the added stages. An RX
		// op's operands have arrived (memory at dataReady, register
		// checked at issue), so its compute is the same one-cycle pass.
		complete := s.cycle + intLat
		s.w.complete[i] = complete
		s.setWriter(seq, complete)
		s.execActiveUntil = max(s.execActiveUntil, complete)
	}
}

// setWriter records seq as the issued producer of its destination
// register, readable from cycle ready. A record without a destination
// (Dst is RegNone) produces nothing.
//
//lint:hotpath per-instruction issue bookkeeping; must not allocate
func (s *sim) setWriter(seq, ready uint64) {
	if s.fc.Flags[seq]&trace.FlagWritesReg == 0 {
		return
	}
	d := s.fc.Dst[seq]
	s.regReady[d] = ready
	s.lastWriter[d] = seq
	s.haveWriter[d] = true
}

// renameSources captures the out-of-order source producers of seq
// (window slot i) from the rename table.
//
//lint:hotpath runs at decode exit for every out-of-order instruction; must not allocate
func (s *sim) renameSources(seq, i uint64) {
	switch isa.Class(s.fc.Class[seq]) {
	case isa.Store, isa.RX:
		if w, ok := s.captureWriter(s.fc.Src1[seq]); ok {
			s.w.src1Writer[i] = w
			s.w.wflags[i] |= wHasSrc1
		}
	case isa.RR, isa.FP, isa.Branch:
		if w, ok := s.captureWriter(s.fc.Src1[seq]); ok {
			s.w.src1Writer[i] = w
			s.w.wflags[i] |= wHasSrc1
		}
		if w, ok := s.captureWriter(s.fc.Src2[seq]); ok {
			s.w.src2Writer[i] = w
			s.w.wflags[i] |= wHasSrc2
		}
	}
	s.res.UnitOps[UnitRename]++
}

// captureWriter looks up the youngest in-flight producer of r in the
// rename table.
//
//lint:hotpath called up to twice per renamed instruction; must not allocate
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
	if isa.Class(s.fc.Class[seq]) == isa.Load {
		return s.w.dataReady[i]
	}
	return s.w.complete[i]
}

// traceInstr emits one instruction-lifecycle event (fetch, issue or
// retire) for sequence number seq.
//
//lint:hotpath per-instruction trace emission when tracing is armed; must not allocate
func (s *sim) traceInstr(kind telemetry.EventKind, seq uint64) {
	s.tel.Emit(telemetry.Event{
		Cycle:  s.cycle,
		Kind:   kind,
		Arg:    seq,
		PC:     s.fc.PC[seq],
		Detail: s.fc.Class[seq],
	})
}
