package pipeline

import (
	"math/bits"

	"repro/internal/isa"
)

// Skip-ahead over deterministic stall spans.
//
// The per-cycle engine spends most of its cycles doing nothing: the
// machine sits in a stall span — a mispredict freeze, a cache-miss
// fill, an FPU occupancy, a long dependence wait — where every stage's
// guard is a comparison against a future cycle number and no state
// changes except the cycle counter and the per-cycle accounting. The
// same observation the paper exploits analytically (a k-cycle refill
// is one closed-form interval, not k events) lets the simulator
// replicate such cycles in O(1).
//
// Legality. skipAhead runs only immediately after a cycle the engine
// itself observed to be quiet (see loop: nothing fetched, issued,
// moved, retired or touched the cache, and the trace-end transition
// did not fire) that was accounted as a stall. In that situation every
// stage is blocked, and each stage's blocker is either
//
//   - a time gate: a comparison of the frozen machine state against
//     the advancing cycle counter (regReady/dataReady/complete
//     thresholds, fpuBusyUntil, cacheBusyUntil, iBusyUntil,
//     redirectHoldTo, pipe transit ages), or
//   - a resource gate: a full queue or an unready producer, which only
//     another stage's movement could clear.
//
// By induction over the stage dependency chain, no stage can move
// before the earliest time gate fires: the first movement in the span
// must be enabled by a time gate, because before any movement every
// resource gate is unchanged. wakeCycle therefore enumerates every
// time gate reachable from the frozen state — including the gates that
// merely flip an accounting decision rather than movement (stall-cause
// reclassification thresholds inside blockCause/classifyDep, the
// anyMoving transit ages and busy-until horizons that feed
// UnitActive, and the iBusyUntil horizon that splits the frontend
// budget bucket) — and the engine replicates the quiet cycle's exact
// accounting for every cycle strictly before the earliest gate:
//
//	IssueHist[0]        += k   (zero-issue cycle)
//	CycleBudget[bucket] += k   (same bucket: all gates ≥ wake)
//	StallCycles[cause]  += k   (same cause: all gates ≥ wake)
//	UnitActive[u]       += k   for each unit active in the quiet cycle
//	UnitOps[fetch/dec]  += k·Width under WrongPathActivity freezes
//
// Episode counters add nothing: the replicated cycles continue the
// same-cause stall run begun by the stepped cycle. The watchdog and
// MaxCycles horizons participate as gates, so runaway detection fires
// on exactly the same cycle as per-cycle stepping.
//
// Observers. The per-cycle capacity laws (checkCycleInvariants) read
// only frozen state — occupancies and cursors — plus the cycle's fetch
// and retire counts, which are zero on a quiet cycle. A law that holds
// on the stepped quiet cycle therefore holds on every cycle replicated
// from it, so the invariant hook runs on stepped cycles only. A
// stepped cycle that breached a law is not replicated (loop does not
// call skipAhead after it), because per-cycle stepping would record the
// breach again on every frozen cycle; the recorder thus sees exactly
// the per-cycle violation sequence. Activity sampling is a gate of its
// own: wakeCycle bounds every span at the next SampleInterval
// boundary, so takeSample fires on a stepped cycle with the per-cycle
// contents.
//
// Skip-ahead is off (newSim leaves s.skip unset) for EnginePerCycle,
// the reference, and whenever individual cycles must be stepped: an
// armed tracer, which emits per-cycle events, or the out-of-order
// window, which re-scans the pending list per cycle. With it off,
// results are produced by per-cycle stepping alone; with it on they are
// bit-identical by construction, which the difftest bit-identity tier,
// the golden step traces and the pinned reference table verify.

// skipAhead replicates the just-stepped quiet stall cycle up to (but
// not including) the earliest cycle at which any time gate fires.
//
//lint:hotpath runs after every quiet stall cycle; must not allocate
func (s *sim) skipAhead() {
	if s.issued < s.decoded {
		// Defensive: only replicate while the issue head is provably
		// blocked. A quiet cycle with an issuable head cannot happen
		// (issue would have taken it); if it ever did, stepping
		// per-cycle is always correct.
		seq := s.issued
		if _, blocked := s.blockCause(seq, s.w.idx(seq), isa.Class(s.fc.Class[seq])); !blocked {
			return
		}
	}
	wake := s.wakeCycle()
	if wake <= s.cycle+1 {
		return
	}
	k := wake - s.cycle - 1
	s.res.IssueHist[0] += k
	s.res.CycleBudget[s.lastBucket] += k
	s.res.StallCycles[s.prevStall] += k
	for m := s.active; m != 0; m &= m - 1 {
		s.res.UnitActive[bits.TrailingZeros32(m)] += k
	}
	if s.cfg.WrongPathActivity && s.havePending {
		s.res.UnitOps[UnitFetch] += k * uint64(s.cfg.Width)
		s.res.UnitOps[UnitDecode] += k * uint64(s.cfg.Width)
	}
	s.cycle = wake - 1
}

// boundWake lowers wake to candidate gate c when c is in the future
// (gates at or before the frozen cycle t are inert: their comparisons
// already resolved in the stepped cycle and cannot flip again).
//
//lint:hotpath gate accumulation inside wakeCycle; must not allocate
func boundWake(wake, c, t uint64) uint64 {
	if c > t && c < wake {
		return c
	}
	return wake
}

// wakeCycle returns the earliest future cycle at which any time gate
// of the frozen machine state can fire. Cycles strictly before it
// replay the quiet cycle verbatim.
//
//lint:hotpath runs after every quiet stall cycle; must not allocate
func (s *sim) wakeCycle() uint64 {
	t := s.cycle
	// Watchdog and MaxCycles horizons: never skip past the cycle on
	// which per-cycle stepping would abort the run.
	wake := s.lastProgress + watchdogCycles + 1
	if m := s.cfg.MaxCycles; m > 0 && m+1 < wake {
		wake = m + 1
	}
	// Activity sampling: the next sample boundary is stepped, so
	// takeSample fires on it with the per-cycle engine's contents.
	if iv := s.cfg.SampleInterval; iv > 0 {
		wake = boundWake(wake, (t/iv+1)*iv, t)
	}

	// Front-end hold timers (fetch gates and the icache/frontend
	// budget-bucket split).
	wake = boundWake(wake, s.iBusyUntil, t)
	wake = boundWake(wake, s.redirectHoldTo, t)
	// Busy-until horizons (activity flips and the FP issue gate).
	wake = boundWake(wake, s.execActiveUntil, t)
	wake = boundWake(wake, s.fpuBusyUntil, t)

	// Mispredict resolution: fetch unfreezes the cycle after the
	// pending branch completes.
	if s.havePending {
		if c := s.w.complete[s.w.idx(s.pendingBranch)]; c != never {
			wake = boundWake(wake, c+1, t)
		}
	}
	// Retirement of the window head.
	if s.retired < s.decoded {
		i := s.w.idx(s.retired)
		if s.w.issuedAt[i] != never && s.w.complete[i] != never {
			wake = boundWake(wake, s.w.complete[i]+1, t)
		}
	}
	// Issue of the execution-queue head: every comparison threshold in
	// its blockCause chain.
	if s.issued < s.decoded {
		wake = s.issueWake(wake)
	}
	// Cache exit.
	if s.cachePipe.size > 0 {
		wake = boundWake(wake, s.cacheBusyUntil, t)
		wake = boundWake(wake, s.cachePipe.headAt()+s.cacheT, t)
		wake = boundWake(wake, s.cachePipe.lastAt+s.cacheT, t)
	}
	// Agen advance (head eligibility and anyMoving flip).
	if s.agenPipe.size > 0 {
		wake = boundWake(wake, s.agenPipe.headAt()+s.agenTransit, t)
		wake = boundWake(wake, s.agenPipe.lastAt+s.agenTransit, t)
	}
	// Agen-queue head: its base producer's ready time.
	if s.agenQ.size > 0 {
		i := s.w.idx(s.agenQ.headSeq())
		if s.w.wflags[i]&wHasBase != 0 {
			if rt := s.writerReady(s.w.baseWriter[i]); rt != never {
				wake = boundWake(wake, rt, t)
			}
		}
	}
	// Decode exit (head eligibility and anyMoving flip).
	if s.decodePipe.size > 0 {
		wake = boundWake(wake, s.decodePipe.headAt()+s.decTransit, t)
		wake = boundWake(wake, s.decodePipe.lastAt+s.decTransit, t)
	}
	return wake
}

// issueWake folds in every time gate of the in-order issue head's
// blockCause chain: the comparisons that unblock it and the ones that
// merely reclassify the stall cause mid-wait (classifyDep consults the
// producer's dataReady, so that threshold gates too).
//
//lint:hotpath runs after every quiet stall cycle; must not allocate
func (s *sim) issueWake(wake uint64) uint64 {
	t := s.cycle
	seq := s.issued
	i := s.w.idx(seq)
	c, r1, r2 := isa.Class(s.fc.Class[seq]), s.fc.Src1[seq], s.fc.Src2[seq]
	switch c {
	case isa.Load:
		// A load head is never blocked; the defensive blockCause check
		// in skipAhead already bailed. Unreachable.
	case isa.Store:
		wake = boundWake(wake, s.regReady[r1], t)
		wake = s.depWake(wake, r1, t)
	case isa.RX:
		if dr := s.w.dataReady[i]; dr != never {
			wake = boundWake(wake, dr, t)
		}
		wake = boundWake(wake, s.regReady[r1], t)
		wake = s.depWake(wake, r1, t)
	default: // FP, RR, Branch
		if c == isa.FP {
			wake = boundWake(wake, s.fpuBusyUntil, t)
		}
		if r1 != isa.RegNone {
			wake = boundWake(wake, s.regReady[r1], t)
			wake = s.depWake(wake, r1, t)
		}
		if r2 != isa.RegNone {
			wake = boundWake(wake, s.regReady[r2], t)
			wake = s.depWake(wake, r2, t)
		}
	}
	return wake
}

// depWake mirrors classifyDep's internal thresholds: while a consumer
// waits on register r, the reported cause can flip from memory to
// plain dependency exactly when the producing load's data arrives, so
// that arrival is a gate even though nothing moves.
//
//lint:hotpath runs per issue-head operand after quiet stall cycles; must not allocate
func (s *sim) depWake(wake uint64, r isa.Reg, t uint64) uint64 {
	if r == isa.RegNone || !s.haveWriter[r] {
		return wake
	}
	p := s.w.idx(s.lastWriter[r])
	if isa.Class(s.fc.Class[s.w.seq[p]]) == isa.Load && s.w.dataReady[p] != never {
		wake = boundWake(wake, s.w.dataReady[p], t)
	}
	return wake
}
