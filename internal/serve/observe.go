package serve

import (
	"time"

	"repro/internal/ledger"
	"repro/internal/telemetry/span"
)

// ledgerStamp renders a ledger event timestamp.
func ledgerStamp(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }

// noteTerminalJob emits the job's single canonical ledger event. Call
// it exactly where the terminal transition was won (finish returned
// true): finishJob for worker-terminated jobs, handleCancel for
// queued-canceled ones. jsp may be nil (the job never ran); with a job
// span, the event carries the span subtree rolled up into per-phase
// durations.
func (s *Server) noteTerminalJob(j *Job, jsp *span.Span, now time.Time) {
	if s.ledger == nil {
		return
	}
	st := j.Status()
	ev := ledger.Event{
		At:              ledgerStamp(now),
		Kind:            "job",
		JobID:           j.ID,
		SpecFingerprint: j.Fingerprint,
		Outcome:         string(st.State),
		Error:           st.Error,
		Workloads:       len(j.Spec.Workloads),
		Points:          st.DonePoints,
		CacheHits:       st.CacheHits,
		Stalled:         st.Stalled,
	}
	j.mu.Lock()
	if !j.started.IsZero() {
		ev.QueueWaitUS = j.started.Sub(j.submitted).Microseconds()
		if !j.finished.IsZero() {
			ev.RunUS = j.finished.Sub(j.started).Microseconds()
		}
	} else if !j.finished.IsZero() {
		// Canceled while queued: the whole life was queue wait.
		ev.QueueWaitUS = j.finished.Sub(j.submitted).Microseconds()
	}
	j.mu.Unlock()
	if jsp != nil {
		if roll := s.spans.Rollup(jsp.ID()); len(roll) > 0 {
			ev.Phases = make(map[string]ledger.PhaseStat, len(roll))
			for name, e := range roll {
				ev.Phases[name] = ledger.PhaseStat{
					Count:   e.Count,
					TotalUS: e.TotalNS / int64(time.Microsecond),
				}
			}
		}
	}
	s.ledger.Record(ev)
}

// noteRequest emits one canonical ledger event per completed HTTP
// request (called from instrument, after the handler returns).
func (s *Server) noteRequest(method, path string, status int, dur time.Duration, now time.Time) {
	if s.ledger == nil {
		return
	}
	s.ledger.Record(ledger.Event{
		At:     ledgerStamp(now),
		Kind:   "request",
		Method: method,
		Path:   path,
		Status: status,
		DurUS:  dur.Microseconds(),
	})
}
