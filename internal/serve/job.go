package serve

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve/spec"
	"repro/internal/telemetry"
)

// State is a job's position in the lifecycle state machine:
//
//	queued ──→ running ──→ done
//	   │           ├─────→ failed
//	   └─────────→ └─────→ canceled
//
// Transitions are monotone — a terminal state (done, failed, canceled)
// never changes. Cancel moves a queued job straight to canceled; a
// running job is asked to stop via its context and reaches canceled
// when the sweep engine observes the cancellation.
type State string

// The job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one frame of a job's SSE progress stream
// (GET /v1/studies/{id}/events). Kind "state" marks lifecycle
// transitions, "point" reports one completed design point, and "done"
// is the terminal frame (its State says which terminal state). The
// broker replays history, so a subscriber joining mid-run still sees
// every earlier frame.
type Event struct {
	Kind     string `json:"kind"` // "state", "point" or "done"
	JobID    string `json:"job_id"`
	State    State  `json:"state,omitempty"`
	Workload string `json:"workload,omitempty"`
	Depth    int    `json:"depth,omitempty"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
}

// JobStatus is the JSON view of a job served by the status endpoints.
type JobStatus struct {
	ID              string    `json:"id"`
	State           State     `json:"state"`
	SpecFingerprint string    `json:"spec_fingerprint"`
	Spec            spec.Spec `json:"spec"`
	// Points is the study's design-point total; DonePoints and
	// CacheHits advance as the sweep fills in.
	Points     int    `json:"points"`
	DonePoints int    `json:"done_points"`
	CacheHits  int    `json:"cache_hits"`
	Error      string `json:"error,omitempty"`
	// Stalled reports that the watchdog flagged this job for making no
	// progress within the stall deadline. Sticky: a job that stalls and
	// then finishes keeps the flag for the postmortem.
	Stalled     bool   `json:"stalled,omitempty"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// WallSec is queue-to-finish (or queue-to-now for a live job).
	WallSec float64 `json:"wall_sec"`
}

// Job is one submitted study moving through the queue. All mutable
// fields are guarded by mu; the HTTP handlers read snapshots and the
// owning worker writes transitions.
type Job struct {
	// Immutable after submission.
	ID          string
	Spec        spec.Spec // normalized
	Fingerprint string
	Total       int

	ctx    context.Context
	cancel context.CancelFunc
	broker *telemetry.Broker

	mu         sync.Mutex
	state      State
	errMsg     string
	resultJSON []byte
	donePoints int
	cacheHits  int
	submitted  time.Time
	started    time.Time
	finished   time.Time
	// lastBeat is the progress heartbeat the watchdog reads: the start
	// of the run, advanced by every completed design point.
	lastBeat time.Time
	// stalled is the watchdog's sticky no-progress flag.
	stalled bool
}

// newJob builds a queued job for a normalized spec under the given
// parent context (the server's base context, so a server stop cancels
// every job).
func newJob(parent context.Context, id string, sp spec.Spec, now time.Time) *Job {
	ctx, cancel := context.WithCancel(parent)
	return &Job{
		ID:          id,
		Spec:        sp,
		Fingerprint: sp.Fingerprint(),
		Total:       sp.Points(),
		ctx:         ctx,
		cancel:      cancel,
		broker:      telemetry.NewBroker(0),
		state:       StateQueued,
		submitted:   now,
	}
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:              j.ID,
		State:           j.state,
		SpecFingerprint: j.Fingerprint,
		Spec:            j.Spec,
		Points:          j.Total,
		DonePoints:      j.donePoints,
		CacheHits:       j.cacheHits,
		Error:           j.errMsg,
		Stalled:         j.stalled,
		SubmittedAt:     j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		st.WallSec = j.finished.Sub(j.submitted).Seconds()
	} else {
		st.WallSec = time.Since(j.submitted).Seconds()
	}
	return st
}

// StateNow returns the current state.
func (j *Job) StateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// ResultJSON returns the completed result's canonical bytes (nil until
// the job is done).
func (j *Job) ResultJSON() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resultJSON
}

// markRunning transitions queued → running; it reports false when the
// job was canceled while waiting in the queue, in which case the
// worker must skip it.
func (j *Job) markRunning(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	j.lastBeat = now
	j.publishLocked(Event{Kind: "state", State: StateRunning})
	return true
}

// stallCheck is the watchdog's probe: when the job is running and its
// heartbeat is older than the deadline, the sticky stalled flag is set.
// It reports (newly flagged, currently flagged) so the caller counts
// each stall exactly once.
func (j *Job) stallCheck(now time.Time, deadline time.Duration) (newly, stalled bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return false, j.stalled
	}
	if !j.stalled && now.Sub(j.lastBeat) > deadline {
		j.stalled = true
		return true, true
	}
	return false, j.stalled
}

// StalledNow reports the sticky watchdog flag.
func (j *Job) StalledNow() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stalled
}

// notePoint records one completed design point, advances the watchdog
// heartbeat and streams the progress frame.
func (j *Job) notePoint(p core.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Workers report concurrently, so a point's callback can arrive
	// after a later one's: keep the published counter monotone.
	j.donePoints = max(j.donePoints, p.Done)
	j.lastBeat = time.Now()
	if p.CacheHit {
		j.cacheHits++
	}
	j.publishLocked(Event{
		Kind:     "point",
		Workload: p.Workload,
		Depth:    p.Depth,
		CacheHit: p.CacheHit,
	})
}

// finish moves the job to a terminal state, stores the result (for
// done), publishes the terminal SSE frame and closes the stream. The
// first terminal transition wins; later calls are no-ops returning
// false.
func (j *Job) finish(state State, resultJSON []byte, errMsg string, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.resultJSON = resultJSON
	j.errMsg = errMsg
	j.finished = now
	j.publishLocked(Event{Kind: "done", State: state, Error: errMsg})
	j.broker.Close()
	j.cancel() // release the context either way
	return true
}

// publishLocked emits an SSE frame with the done/total counters
// filled in. Callers hold j.mu.
func (j *Job) publishLocked(ev Event) {
	ev.JobID = j.ID
	ev.Done = j.donePoints
	ev.Total = j.Total
	_ = j.broker.Publish(ev)
}

// requestCancel implements DELETE /v1/studies/{id}: a queued job
// finishes as canceled immediately; a running job has its context
// canceled and reaches the canceled state when the worker observes it;
// a terminal job is left untouched. changed reports whether anything
// happened; immediate reports that this call itself moved the job to
// canceled (so exactly one party — this caller or the worker — owns
// the serve.jobs_canceled increment).
func (j *Job) requestCancel(now time.Time) (changed, immediate bool) {
	j.mu.Lock()
	if j.state == StateQueued {
		j.mu.Unlock()
		// finish retakes the lock; safe because state can only leave
		// queued via markRunning (worker) or here, and losing that race
		// just downgrades this to the running-job path below.
		if j.finish(StateCanceled, nil, "canceled while queued", now) {
			return true, true
		}
		j.mu.Lock()
	}
	defer j.mu.Unlock()
	if j.state == StateRunning {
		j.cancel()
		return true, false
	}
	return false, false
}
