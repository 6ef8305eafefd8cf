// Package serve implements the depthd study server: sweep-as-a-service
// over the core engine. POST /v1/studies accepts a study spec
// (internal/serve/spec) and returns a job ID; a bounded worker pool
// drains the queue through core.RunCatalog, so the content-addressed
// result cache, the telemetry registry, the span tracer, the SSE
// broker and the invariant engine all run as long-lived server
// subsystems instead of per-invocation CLI flags. Results are
// deterministic JSON payloads (see Result); progress streams per job
// over SSE; admission control bounds both the queue depth (429) and
// the per-request study size (400); SIGTERM drains gracefully.
//
// Endpoints:
//
//	POST   /v1/studies             submit a spec, get a queued job (202)
//	GET    /v1/studies             list jobs in submission order
//	GET    /v1/studies/{id}        job status
//	GET    /v1/studies/{id}/result the deterministic result (409 until done)
//	GET    /v1/studies/{id}/events SSE progress (replay + live)
//	DELETE /v1/studies/{id}        cancel (queued: immediate; running: best-effort)
//	GET    /healthz                liveness
//	GET    /readyz                 readiness (503 while draining)
//	GET    /metrics                Prometheus text exposition
//	GET    /debug/pprof/*          runtime profiles
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/ledger"
	"repro/internal/pipeline"
	"repro/internal/resultcache"
	"repro/internal/serve/spec"
	"repro/internal/telemetry"
	"repro/internal/telemetry/promexp"
	"repro/internal/telemetry/span"
	"repro/internal/workload"
)

// errCanceled is returned from the per-depth machine builder when a
// job's context is canceled; core wraps it, so errors.Is recovers the
// cancellation at the worker.
var errCanceled = errors.New("serve: job canceled")

// Options configures a Server. The zero value serves with sensible
// defaults: 2 workers, a 16-deep queue, a memory-only result cache and
// a fresh registry.
type Options struct {
	// Workers is the job worker-pool size (concurrent studies); 2 if 0.
	Workers int
	// QueueCap bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with 429. 16 if 0.
	QueueCap int
	// Parallelism is each job's core.StudyConfig.Parallelism (workload
	// sweeps within a study); NumCPU if 0.
	Parallelism int
	// Limits is the per-request admission control applied to every
	// submitted spec; zero fields fall back to spec.DefaultLimits.
	Limits spec.Limits
	// MaxJobs caps retained job records; the oldest terminal jobs are
	// evicted beyond it. 1024 if 0.
	MaxJobs int
	// Cache memoizes design points across jobs; a memory-only cache is
	// created if nil, so repeat submissions of an identical spec are
	// O(cache lookup) even without a disk cache.
	Cache *resultcache.Cache
	// Registry receives all server and sweep telemetry; created if nil.
	Registry *telemetry.Registry
	// Spans is the cost-attribution tracer ("request" and "job" roots
	// plus core's study→workload→point trees); created on the registry
	// if nil. The created tracer buffers span records only with a
	// LedgerDir, whose job events roll them up; otherwise its spans
	// only feed the span.*_us histograms.
	Spans *span.Tracer
	// Invariants, when non-nil, attaches the runtime conformance
	// engine to every simulated point.
	Invariants *invariant.Recorder
	// Log receives structured diagnostics; slog.Default() if nil.
	Log *slog.Logger

	// StallTimeout arms the job watchdog: a running job with no
	// completed design point for longer than this is flagged stalled
	// (sticky), counted in serve.jobs_stalled_total, and the first
	// stall captures a goroutine dump into DumpDir. 0 disables.
	StallTimeout time.Duration
	// WatchdogInterval is the scan period; StallTimeout/4 if 0.
	WatchdogInterval time.Duration
	// DumpDir receives the first-stall goroutine dump; no dump if "".
	DumpDir string

	// LedgerDir enables the canonical request/job ledger: one wide
	// JSONL event per terminal request and per terminal job, appended
	// to <LedgerDir>/events.jsonl by a bounded non-blocking writer.
	// "" disables.
	LedgerDir string
	// LedgerCap bounds the in-flight ledger queue; ledger's default
	// if 0.
	LedgerCap int
}

// Server is the depthd job server. Construct with New (which starts
// the worker pool), mount Handler on an HTTP server or drive it with
// Serve, and stop with Drain/Close. The mutable job-registry fields
// are guarded by mu; everything above the mutex is set in New (or, for
// beforeRun, before any submission) and immutable afterwards.
type Server struct {
	opts    Options
	log     *slog.Logger
	reg     *telemetry.Registry
	cache   *resultcache.Cache
	spans   *span.Tracer
	handler http.Handler

	// Observability subsystems; each is nil when disabled.
	ledger *ledger.Writer
	dog    *watchdog

	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *Job
	wg      sync.WaitGroup
	reqSeq  atomic.Uint64

	// beforeRun, when set (tests only, before any submission), runs in
	// the worker after a job transitions to running and before the
	// sweep starts. It lets tests hold a worker deterministically.
	// Above the mutex: immutable once the first job is submitted.
	beforeRun func(*Job)

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	seq      uint64
	draining bool
}

// New builds a server and starts its worker pool.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 16
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.NumCPU()
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 1024
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	if opts.Log == nil {
		opts.Log = slog.Default()
	}
	if opts.Spans == nil {
		capacity := span.NoRecords
		if opts.LedgerDir != "" {
			capacity = span.DefaultMaxSpans
		}
		opts.Spans = span.NewTracer(opts.Registry, capacity)
	}
	if opts.Cache == nil {
		c, err := resultcache.Open(resultcache.Options{Metrics: opts.Registry})
		if err != nil {
			return nil, fmt.Errorf("serve: memory cache: %w", err)
		}
		opts.Cache = c
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		log:     opts.Log,
		reg:     opts.Registry,
		cache:   opts.Cache,
		spans:   opts.Spans,
		baseCtx: ctx,
		stop:    stop,
		queue:   make(chan *Job, opts.QueueCap),
		jobs:    make(map[string]*Job),
	}
	if opts.LedgerDir != "" {
		lw, err := ledger.Open(ledger.Options{
			Dir: opts.LedgerDir, Capacity: opts.LedgerCap, Registry: opts.Registry,
		})
		if err != nil {
			stop()
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.ledger = lw
	}
	if opts.StallTimeout > 0 {
		s.dog = newWatchdog(s, opts.StallTimeout, opts.WatchdogInterval, opts.DumpDir)
	}
	s.handler = s.instrument(s.routes())
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the server's HTTP surface (instrumented mux).
func (s *Server) Handler() http.Handler { return s.handler }

// Registry exposes the server's telemetry registry (the load harness
// asserts cache-hit counters through it).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Ledger exposes the request/job ledger writer (nil without a
// LedgerDir).
func (s *Server) Ledger() *ledger.Writer { return s.ledger }

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/studies", s.handleSubmit)
	mux.HandleFunc("GET /v1/studies", s.handleList)
	mux.HandleFunc("GET /v1/studies/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/studies/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/studies/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/studies/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("GET /metrics", promexp.Handler(s.reg))
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// statusWriter records the response code and forwards Flush, so SSE
// streaming works through the instrumentation layer.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

type ctxKey int

const logKey ctxKey = 0

// reqLog returns the request-scoped logger installed by instrument.
func reqLog(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(logKey).(*slog.Logger); ok {
		return l
	}
	return slog.Default()
}

// instrument wraps the mux with request-scoped context: a sequenced
// request ID on the logger, a "request" span, the request counter and
// the error counter.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.reqSeq.Add(1)
		start := time.Now()
		s.reg.Counter("serve.http_requests").Inc()
		sp := s.spans.Start("request",
			span.String("method", r.Method), span.String("path", r.URL.Path))
		rlog := s.log.With("req", id, "method", r.Method, "path", r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), logKey, rlog)))
		sp.SetAttr("status", strconv.Itoa(sw.code))
		sp.End()
		if sw.code >= 400 {
			s.reg.Counter("serve.http_errors").Inc()
		}
		dur := time.Since(start)
		s.noteRequest(r.Method, r.URL.Path, sw.code, dur, time.Now())
		rlog.Debug("http request", "status", sw.code, "dur", dur)
	})
}

// writeJSON responds with a JSON body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr responds with the API's error envelope.
func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// maxSpecBody bounds the request body of a study submission.
const maxSpecBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp spec.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		s.reg.Counter("serve.jobs_rejected").Inc()
		writeErr(w, http.StatusBadRequest, "decode spec: "+err.Error())
		return
	}
	if err := sp.Validate(s.opts.Limits); err != nil {
		s.reg.Counter("serve.jobs_rejected").Inc()
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	norm := sp.Normalize()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reg.Counter("serve.jobs_rejected").Inc()
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.seq++
	job := newJob(s.baseCtx, jobID(s.seq, norm.Fingerprint()), norm, time.Now())
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		s.reg.Counter("serve.jobs_rejected").Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("queue full (%d jobs); retry later", cap(s.queue)))
		return
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.evictLocked()
	s.mu.Unlock()

	s.reg.Counter("serve.jobs_submitted").Inc()
	s.reg.Gauge("serve.queue_depth").Set(float64(len(s.queue)))
	reqLog(r.Context()).Info("study queued",
		"job", job.ID, "spec", job.Spec.Summary(), "fingerprint", job.Fingerprint)
	writeJSON(w, http.StatusAccepted, job.Status())
}

// jobID renders a job identifier: submission sequence plus the spec
// fingerprint's head, so operators can spot identical studies at a
// glance.
func jobID(seq uint64, fp string) string {
	head := fp
	if len(head) > 8 {
		head = head[:8]
	}
	return fmt.Sprintf("j%06d-%s", seq, head)
}

// evictLocked drops the oldest terminal jobs beyond the retention cap.
// Callers hold s.mu.
func (s *Server) evictLocked() {
	for len(s.order) > s.opts.MaxJobs {
		evicted := false
		for i, id := range s.order {
			if j := s.jobs[id]; j != nil && j.StateNow().Terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is live; keep it all
		}
	}
}

func (s *Server) lookup(r *http.Request) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	switch st := j.Status(); st.State {
	case StateDone:
		// The stored bytes are the canonical result encoding; serving
		// them verbatim keeps "served result" bit-identical to a direct
		// BuildResult + Marshal of the same spec.
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(j.ResultJSON())
	case StateFailed, StateCanceled:
		writeErr(w, http.StatusConflict,
			fmt.Sprintf("job %s %s: %s", j.ID, st.State, st.Error))
	default:
		writeErr(w, http.StatusConflict,
			fmt.Sprintf("job %s is %s; result not ready", j.ID, st.State))
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	// The broker replays the job's full history to late subscribers and
	// streams live frames until the job finishes or the client leaves.
	j.broker.ServeHTTP(w, r)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	now := time.Now()
	changed, immediate := j.requestCancel(now)
	if changed {
		reqLog(r.Context()).Info("cancel requested", "job", j.ID, "state", j.StateNow())
	}
	// A queued job is canceled right here; a running one is counted by
	// the worker when it observes the cancellation — never both. The
	// same ownership covers the ledger: whoever wins the terminal
	// transition emits the job's single event (no span tree — the job
	// never ran).
	if immediate {
		s.reg.Counter("serve.jobs_canceled").Inc()
		s.noteTerminalJob(j, nil, now)
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// worker drains the queue until it closes (Drain) and the backlog is
// exhausted. A canceled base context doesn't abandon queued jobs — it
// makes each one fail fast as canceled, so every job still reaches a
// terminal state.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.reg.Gauge("serve.queue_depth").Set(float64(len(s.queue)))
		s.runJob(job)
	}
}

// runJob executes one study through core.RunCatalog with the server's
// cache, registry, tracer and invariant recorder attached.
func (s *Server) runJob(j *Job) {
	start := time.Now()
	if !j.markRunning(start) {
		return // canceled while queued
	}
	s.reg.Gauge("serve.jobs_running").Add(1)
	defer s.reg.Gauge("serve.jobs_running").Add(-1)
	if s.beforeRun != nil {
		s.beforeRun(j)
	}
	// finishJob ends the job span.
	jsp := s.spans.Start("job",
		span.String("job", j.ID), span.Int("points", j.Total))

	cfg, err := j.Spec.StudyConfig()
	if err == nil {
		var profs []workload.Profile
		if profs, err = j.Spec.Profiles(); err == nil {
			cfg.Parallelism = s.opts.Parallelism
			cfg.Cache = s.cache
			cfg.Metrics = s.reg
			cfg.Spans = s.spans
			// Nest the study's span tree under the job span, so the
			// ledger can roll the whole run up into per-phase durations.
			cfg.Parent = jsp
			cfg.Invariants = s.opts.Invariants
			base := cfg.Machine
			// Cancellation hook: core has no context plumbing, but it
			// calls Machine before every simulated point, so checking the
			// job context there stops a canceled study within one point.
			cfg.Machine = func(depth int) (pipeline.Config, error) {
				if j.ctx.Err() != nil {
					return pipeline.Config{}, errCanceled
				}
				return base(depth)
			}
			cfg.Progress = j.notePoint
			sweeps, rerr := core.RunCatalog(cfg, profs)
			s.finishJob(j, jsp, sweeps, time.Since(start).Microseconds(), rerr)
			return
		}
	}
	// Validated at admission, so this is a server bug, not user error.
	s.finishJob(j, jsp, nil, 0, fmt.Errorf("spec became invalid after admission: %w", err))
}

// finishJob folds a catalog run into the job's terminal state. It ends
// the job span first, so a client that observes the terminal state also
// sees span.job_us. The ledger event is emitted only when this call won
// the terminal transition (finish returned true), so a job that raced a
// cancel still produces exactly one event.
func (s *Server) finishJob(j *Job, jsp *span.Span, sweeps []*core.Sweep, us int64, err error) {
	now := time.Now()
	end := func(state State) {
		jsp.SetAttr("state", string(state))
		jsp.End()
	}
	var won bool
	switch {
	case err != nil && (errors.Is(err, errCanceled) || j.ctx.Err() != nil):
		end(StateCanceled)
		won = j.finish(StateCanceled, nil, "canceled", now)
		s.reg.Counter("serve.jobs_canceled").Inc()
		s.log.Info("job canceled", "job", j.ID)
	case err != nil:
		end(StateFailed)
		won = j.finish(StateFailed, nil, err.Error(), now)
		s.reg.Counter("serve.jobs_failed").Inc()
		s.log.Error("job failed", "job", j.ID, "err", err)
	default:
		data, merr := json.Marshal(BuildResult(j.Spec, sweeps))
		if merr != nil {
			end(StateFailed)
			won = j.finish(StateFailed, nil, "encode result: "+merr.Error(), now)
			s.reg.Counter("serve.jobs_failed").Inc()
			s.log.Error("job result encoding failed", "job", j.ID, "err", merr)
			break
		}
		end(StateDone)
		won = j.finish(StateDone, data, "", now)
		s.reg.Counter("serve.jobs_completed").Inc()
		st := j.Status()
		s.log.Info("job done", "job", j.ID, "points", st.Points,
			"cache_hits", st.CacheHits, "wall_sec", st.WallSec, "us", us)
	}
	if won {
		// The workload/point child spans have all ended by now, so the
		// rollup under the job span (itself excluded) is complete.
		s.noteTerminalJob(j, jsp, now)
	}
}

// Drain stops intake (submissions 503, readyz 503), lets the workers
// finish the backlog, and returns when every job has reached a
// terminal state. If ctx expires first, all remaining jobs are
// canceled via their contexts and Drain waits for the workers to
// observe that, returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.stop()
		<-done
		return ctx.Err()
	}
}

// Close force-stops the server: intake closed, every job context
// canceled, workers joined, then the observability subsystems are
// stopped — the watchdog first, the ledger last, so every terminal job
// event reaches disk before the file closes. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
	s.dog.close()
	_ = s.ledger.Close()
}

// Serve runs the server on ln until ctx is canceled, then drains
// gracefully within drainTimeout and shuts the HTTP listener down. It
// is the shared lifecycle of cmd/depthd and the e2e harness.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	hs := &http.Server{Handler: s.handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		derr := s.Drain(dctx)
		if err := hs.Shutdown(dctx); err != nil {
			_ = hs.Close()
		}
		s.Close()
		if derr != nil {
			return fmt.Errorf("serve: drain: %w", derr)
		}
		return nil
	}
}
