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
// merely flip an accounting decision rather than movement (the
// anyMoving transit ages and busy-until horizons that feed UnitActive,
// and the iBusyUntil horizon that splits the frontend budget bucket).
// The issue head contributes one gate, which blockCause itself reports:
// while the head blocks on the FPU or on its first unready operand, its
// answer — blocked, and with which cause — holds until that one
// threshold (or, for a load producer, its data arrival, where memory
// turns into dependency), whatever the later operands' thresholds. The
// engine replicates the quiet cycle's exact accounting for every cycle
// strictly before the earliest gate:
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
	// The issue head's one gate: blockCause's answer holds until it
	// reports it can change.
	head := uint64(never)
	if s.issued < s.decoded {
		seq := s.issued
		_, head = s.blockCause(seq, s.w.idx(seq), isa.Class(s.fc.Class[seq]))
		if head == 0 {
			// Defensive: a quiet cycle with an issuable head cannot
			// happen (issue would have taken it); if it ever did,
			// stepping per-cycle is always correct.
			return
		}
	}
	wake := boundWake(s.wakeCycle(), head, s.cycle)
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
// of the frozen machine state, other than the issue head's (see
// skipAhead), can fire.
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
