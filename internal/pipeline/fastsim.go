package pipeline

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
)

// The fused packed-trace hot loop.
//
// When the in-order model runs from a packed trace with skip-ahead
// armed (no cycle tracer), the engine never needs isa.Instruction
// values at all: every stage reads the packed struct-of-arrays
// columns directly by sequence number. Fetch stops materializing
// records into the window (w.in stays nil on this path), the per-stage
// method calls and telemetry branches of step() collapse into one
// straight-line cycle body, and the constant-per-configuration
// quantities (issue widths, transit times, the FO4→cycle latency
// conversions) hoist out of the loop. The cycle-by-cycle decision sequence is the per-cycle engine's,
// statement for statement — results are bit-identical by construction,
// and the difftest engine bit-identity tier checks that end to end.
//
// Observers are nil-checked hooks at the end of each stepped cycle:
// the invariant hook tests the per-cycle capacity laws with the
// inlined cycleLawsHold and calls the recording checkCycleInvariants
// only on a breach, and the sampling hook takes the interval sample on
// each SampleInterval boundary (skipahead.go explains why replicated
// cycles need neither).
//
// Slot-faithful reads: the shared helpers (writerReady, depWake and
// the stall classifiers) historically read the class of a window SLOT,
// whose occupant may be a younger instruction after slot reuse. The
// fast path preserves those exact semantics by translating slot →
// current occupant's sequence (w.seq[i]) → packed class column; see
// slotClass.

// runFast drives the run loop over the packed columns. Preconditions
// (established in newSim): s.psrc != nil, s.skip (hence in-order, no
// tracer).
func (s *sim) runFast() error {
	t, pos, hi := s.psrc.Trace()
	s.fc = t.Columns(pos)
	s.fast = true
	total := uint64(hi - pos)

	var (
		w   = &s.w
		res = &s.res

		cls   = s.fc.Class
		flg   = s.fc.Flags
		base  = s.fc.Base
		pcs   = s.fc.PC
		addrs = s.fc.Addr
		tgts  = s.fc.Target

		width    = s.cfg.Width
		ports    = s.cfg.CachePorts
		bwidth   = s.cfg.BranchWidth
		agenW    = s.cfg.AgenWidth
		execQCap = s.cfg.ExecQCap
		decT     = s.decTransit
		agenT    = s.agenTransit
		cacheT   = s.cacheT
		hier     = s.cfg.Hierarchy
		icache   = s.cfg.ICache
		pred     = s.cfg.Predictor
		btb      = s.cfg.BTB
		nonBlock = s.cfg.NonBlockingCache
		redirect = s.cfg.RedirectBubble
		btbBub   = uint64(s.cfg.BTBMissBubbles)
		maxCyc   = s.cfg.MaxCycles
		wrong    = s.cfg.WrongPathActivity
		wnum     = w.num
		inv      = s.inv
		sampleIv = s.cfg.SampleInterval

		// FO4→cycle conversions are pure functions of the configuration;
		// precompute the three latencies Access/ICache can report.
		iMissCycles = s.cfg.LatencyCycles(s.cfg.ICacheMissFO4)
		l2Cycles    uint64
		memCycles   uint64
	)
	if hier != nil {
		hcfg := hier.Config()
		l2Cycles = s.cfg.LatencyCycles(hcfg.L2LatencyFO4)
		memCycles = s.cfg.LatencyCycles(hcfg.MemLatencyFO4)
	}

	for {
		if s.traceDone && s.retired == s.next {
			break
		}
		s.cycle++
		cyc := s.cycle
		if maxCyc > 0 && cyc > maxCyc {
			s.psrc.Skip(int(s.next))
			return fmt.Errorf("pipeline: exceeded MaxCycles=%d", maxCyc)
		}
		if cyc-s.lastProgress > watchdogCycles {
			s.psrc.Skip(int(s.next))
			return errors.New("pipeline: no forward progress (engine deadlock)")
		}

		var active uint32
		moved := false
		wasDone := s.traceDone
		retiredNow, fetched := 0, 0

		// Resolve a pending mispredicted branch.
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

		// Issue (strictly in order), then the cycle-budget accounting.
		issued, memIssued, brIssued := 0, 0, 0
		var cause StallCause
		blocked := false
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
			if cc, ok := s.blockCauseFast(seq, i, c); ok {
				cause, blocked = cc, true
				break
			}
			s.issueFast(seq, i, c)
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
			active |= 1 << UnitExecQ
			moved = true
		}
		if issued > 0 {
			res.IssueCycles++
			res.IssueHist[issued]++
			res.CycleBudget[BudgetUsefulIssue]++
			s.prevWasStall = false
		} else {
			res.IssueHist[0]++
			drained := false
			if !blocked {
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

		// Cache exit.
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

				level := cache.L1
				if hier != nil {
					level, _ = hier.Access(addrs[seq])
				}
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
				if w.issuedAt[i] != never {
					w.complete[i] = max(w.issuedAt[i]+intLat, w.dataReady[i])
				}
				if c == isa.Load {
					d := s.fc.Dst[seq]
					if s.haveWriter[d] && s.lastWriter[d] == seq {
						s.regReady[d] = w.dataReady[i]
					}
				}
			}
		}

		// Agen advance.
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

		// Agen queue.
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

		// Decode exit (including the in-order slice of rename: base-
		// producer capture and the decode-time writer table).
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
				res.UnitOps[UnitDecode]++
				res.UnitOps[UnitExecQ]++
				active |= 1 << UnitExecQ
				moved = true
			}
		}

		// Fetch.
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
				if icache != nil {
					line := pcs[seq] &^ 63
					if line != s.lastFetchLine {
						s.lastFetchLine = line
						if !icache.Access(pcs[seq]) {
							res.ICacheMisses++
							s.iBusyUntil = cyc + iMissCycles
						}
					}
				}
				i := w.idx(seq)
				s.next++
				s.lastProgress = cyc
				w.seq[i] = seq
				w.dataReady[i] = never
				w.issuedAt[i] = never
				w.complete[i] = never
				w.wflags[i] = 0
				s.decodePipe.push(seq, cyc)
				fetched++
				res.UnitOps[UnitFetch]++

				if isa.Class(cls[seq]) == isa.Branch {
					res.Branches++
					taken := flg[seq]&trace.FlagTaken != 0
					if taken {
						res.TakenBranches++
					}
					predicted := taken
					if pred != nil {
						predicted = pred.Predict(pcs[seq])
						pred.Update(pcs[seq], taken)
					}
					if predicted == taken {
						res.PredictorCorrect++
						if taken {
							hold := uint64(0)
							if redirect {
								hold = 1
							}
							if btb != nil {
								if _, hit := btb.Lookup(pcs[seq]); !hit {
									res.BTBMisses++
									hold += btbBub
								}
								btb.Update(pcs[seq], tgts[seq])
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

		// Activity accounting (recordActivity, fused).
		if wrong && s.havePending {
			active |= 1<<UnitFetch | 1<<UnitDecode
			res.UnitOps[UnitFetch] += uint64(width)
			res.UnitOps[UnitDecode] += uint64(width)
		}
		if s.decodePipe.size > 0 && cyc-s.decodePipe.lastAt < decT {
			active |= 1 << UnitDecode
		}
		if agenT > 0 && s.agenPipe.size > 0 && cyc-s.agenPipe.lastAt < agenT {
			active |= 1 << UnitAgen
		}
		if s.cachePipe.size > 0 && cyc-s.cachePipe.lastAt < cacheT {
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

		if occ := int(s.next - s.retired); occ > res.MaxWindowOccupied {
			res.MaxWindowOccupied = occ
		}
		// Observer hooks. A breach takes the out-of-line recording path,
		// and a breaching cycle is never replicated (per-cycle stepping
		// would record it again on every frozen cycle); wakeCycle stops
		// every span short of the next sample boundary.
		breached := false
		if inv != nil && !s.cycleLawsHold(fetched, retiredNow) {
			s.fetchedNow, s.retiredNow = fetched, retiredNow
			breached = s.checkCycleInvariants()
		}
		if sampleIv > 0 && cyc%sampleIv == 0 {
			s.takeSample()
		}
		s.moved = moved
		s.quiet = !moved && s.traceDone == wasDone && !breached
		if s.quiet && s.prevWasStall {
			s.skipAhead()
		}
	}
	// Keep the external cursor consistent with the records consumed, for
	// callers that continue iterating the stream after the run.
	s.psrc.Skip(int(s.next))
	return nil
}

// blockCauseFast is blockCause reading the packed columns by sequence
// number instead of the window record copy. The issue head's slot is
// never reused while it is the head (issued < decoded ≤ next), so the
// column reads see exactly the values the window copy would hold.
//
//lint:hotpath per-instruction stall classification on the fused path; must not allocate
func (s *sim) blockCauseFast(seq, i uint64, c isa.Class) (StallCause, bool) {
	switch c {
	case isa.Load:
		return 0, false
	case isa.Store:
		if r := s.fc.Src1[seq]; s.regReady[r] > s.cycle {
			return s.classifyDepFast(r), true
		}
		return 0, false
	case isa.RX:
		if s.w.dataReady[i] == never {
			return StallAgen, true
		}
		if s.w.dataReady[i] > s.cycle {
			return StallMemory, true
		}
		if r := s.fc.Src1[seq]; s.regReady[r] > s.cycle {
			return s.classifyDepFast(r), true
		}
		return 0, false
	}
	if c == isa.FP && s.fpuBusyUntil > s.cycle {
		return StallFP, true
	}
	if r := s.fc.Src1[seq]; r != isa.RegNone && s.regReady[r] > s.cycle {
		return s.classifyDepFast(r), true
	}
	if r := s.fc.Src2[seq]; r != isa.RegNone && s.regReady[r] > s.cycle {
		return s.classifyDepFast(r), true
	}
	return 0, false
}

// classifyDepFast is classifyDep on the fused path: the producer's
// class is read slot-faithfully (the class of whatever currently
// occupies the producer's window slot), preserving the per-cycle
// engine's classification bit for bit even across slot reuse.
//
//lint:hotpath per-operand stall classification on the fused path; must not allocate
func (s *sim) classifyDepFast(r isa.Reg) StallCause {
	if !s.haveWriter[r] {
		return StallDependency
	}
	p := s.w.idx(s.lastWriter[r])
	if isa.Class(s.fc.Class[s.w.seq[p]]) == isa.Load {
		if s.w.dataReady[p] == never {
			return StallAgen
		}
		if s.w.dataReady[p] > s.cycle {
			return StallMemory
		}
	}
	return StallDependency
}

// issueFast is issue reading the packed columns by sequence number.
//
//lint:hotpath per-instruction issue bookkeeping on the fused path; must not allocate
func (s *sim) issueFast(seq, i uint64, c isa.Class) {
	s.w.issuedAt[i] = s.cycle
	switch c {
	case isa.FP:
		lat := uint64(s.fc.FPLat[seq])
		if lat < s.execLat {
			lat = s.execLat
		}
		complete := s.cycle + lat
		s.w.complete[i] = complete
		s.fpuBusyUntil = complete
		d := s.fc.Dst[seq]
		s.regReady[d] = complete
		s.lastWriter[d] = seq
		s.haveWriter[d] = true
	case isa.Load:
		if s.w.dataReady[i] == never {
			s.w.complete[i] = never
		} else {
			s.w.complete[i] = max(s.cycle+intLat, s.w.dataReady[i])
			s.execActiveUntil = max(s.execActiveUntil, s.cycle+intLat)
		}
		d := s.fc.Dst[seq]
		s.regReady[d] = s.w.dataReady[i]
		s.lastWriter[d] = seq
		s.haveWriter[d] = true
	case isa.Store:
		if s.w.dataReady[i] == never {
			s.w.complete[i] = never
		} else {
			s.w.complete[i] = max(s.cycle+intLat, s.w.dataReady[i])
		}
		s.execActiveUntil = max(s.execActiveUntil, s.cycle+intLat)
	case isa.RX:
		complete := s.cycle + intLat
		s.w.complete[i] = complete
		d := s.fc.Dst[seq]
		s.regReady[d] = complete
		s.lastWriter[d] = seq
		s.haveWriter[d] = true
		s.execActiveUntil = max(s.execActiveUntil, complete)
	case isa.Branch:
		complete := s.cycle + s.execLat
		s.w.complete[i] = complete
		s.execActiveUntil = max(s.execActiveUntil, complete)
	default: // RR
		complete := s.cycle + intLat
		s.w.complete[i] = complete
		d := s.fc.Dst[seq]
		s.regReady[d] = complete
		s.lastWriter[d] = seq
		s.haveWriter[d] = true
		s.execActiveUntil = max(s.execActiveUntil, complete)
	}
}

// slotClass returns the instruction class of window slot i's current
// occupant. On the fused path the window holds no record copies, so
// the class comes from the packed column of the occupant's sequence
// number — which is exactly the value w.in[i].Class holds on the
// per-cycle path (including after slot reuse).
//
//lint:hotpath per ready-check class read; must not allocate
func (s *sim) slotClass(i uint64) isa.Class {
	if s.fast {
		return isa.Class(s.fc.Class[s.w.seq[i]])
	}
	return s.w.in[i].Class
}

// headOperands returns the issue head's class and source registers
// from whichever representation the engine is running on.
//
//lint:hotpath issue-head operand read in wake computation; must not allocate
func (s *sim) headOperands(seq, i uint64) (isa.Class, isa.Reg, isa.Reg) {
	if s.fast {
		return isa.Class(s.fc.Class[seq]), s.fc.Src1[seq], s.fc.Src2[seq]
	}
	in := &s.w.in[i]
	return in.Class, in.Src1, in.Src2
}

// headBlocked reports whether the issue head is provably blocked, via
// whichever blockCause variant matches the running engine.
//
//lint:hotpath skip-ahead legality check; must not allocate
func (s *sim) headBlocked() bool {
	i := s.w.idx(s.issued)
	if s.fast {
		_, blocked := s.blockCauseFast(s.issued, i, isa.Class(s.fc.Class[s.issued]))
		return blocked
	}
	_, blocked := s.blockCause(i)
	return blocked
}
