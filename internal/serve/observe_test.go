package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

// obsOptions returns Options with the watchdog and the ledger on and
// every timescale shrunk to test speed.
func obsOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		StallTimeout:     30 * time.Millisecond,
		WatchdogInterval: 10 * time.Millisecond,
		DumpDir:          t.TempDir(),
		LedgerDir:        t.TempDir(),
	}
}

// TestWatchdogStallDetection is the injected-stall proof: a parked
// worker makes no progress, the watchdog flags the job sticky, counts
// it, captures one goroutine dump, the stall shows in the /metrics
// exposition, and the job still produces exactly one ledger event at
// the end.
func TestWatchdogStallDetection(t *testing.T) {
	opts := obsOptions(t)
	s, hs, release := blockedServer(t, opts)

	st, _ := submit(t, hs.URL, smallSpec())
	waitState(t, hs.URL, st.ID, StateRunning)

	// The watchdog flags the parked job within a few scan intervals.
	// The status flag turns visible first; the counter and the dump
	// follow in the same scan, so all three are polled for. The dump is
	// renamed into place whole, so once it exists it is complete.
	dump := filepath.Join(opts.DumpDir, "goroutines-"+st.ID+".txt")
	stalled := s.reg.Counter("serve.jobs_stalled_total")
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, statErr := os.Stat(dump)
		if getStatus(t, hs.URL, st.ID).Stalled && stalled.Value() > 0 && statErr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stall not fully recorded: stalled=%v counter=%d dump: %v",
				getStatus(t, hs.URL, st.ID).Stalled, stalled.Value(), statErr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := stalled.Value(); got != 1 {
		t.Errorf("serve.jobs_stalled_total = %d, want 1", got)
	}

	// First stall captured a goroutine dump naming the job.
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("goroutine dump not written: %v", err)
	}
	if !strings.Contains(string(data), "goroutine") {
		t.Error("goroutine dump has no stacks")
	}

	// A scraper sees the stall: the counter is in the exposition.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, code := readAll(t, resp)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(string(body), "\nserve_jobs_stalled_total 1\n") {
		t.Errorf("/metrics lacks serve_jobs_stalled_total 1:\n%s", body)
	}

	// Release the worker; the stalled flag is sticky through completion.
	close(release)
	fin := waitState(t, hs.URL, st.ID, StateDone)
	if !fin.Stalled {
		t.Error("stalled flag not sticky after completion")
	}

	// Close flushes the ledger; the stalled job has exactly one event.
	s.Close()
	events, err := ledger.Replay(opts.LedgerDir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	var jobs []ledger.Event
	for _, ev := range events {
		if ev.Kind == "job" {
			jobs = append(jobs, ev)
		}
	}
	if len(jobs) != 1 {
		t.Fatalf("got %d job events, want exactly 1", len(jobs))
	}
	if !jobs[0].Stalled || jobs[0].Outcome != string(StateDone) {
		t.Errorf("job event = %+v, want stalled done", jobs[0])
	}
}

// TestLedgerEmitsCanonicalEvents runs a job to completion and checks
// the ledger holds exactly one wide job line plus one line per HTTP
// request, with the phase rollup filled in from the span tree.
func TestLedgerEmitsCanonicalEvents(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Options{Workers: 1, LedgerDir: dir})

	st, _ := submit(t, hs.URL, smallSpec())
	fin := waitState(t, hs.URL, st.ID, StateDone)
	resp, err := http.Get(hs.URL + "/v1/studies/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	s.Close()
	events, err := ledger.Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	sum := ledger.Summarize(events)
	if sum["job:done"] != 1 {
		t.Fatalf("summary %v, want exactly one job:done", sum)
	}
	// Every HTTP request in this test produced a request line: the
	// submit, each status poll, and the result fetch.
	if sum["request"] < 3 {
		t.Errorf("got %d request events, want >= 3", sum["request"])
	}
	for _, ev := range events {
		if ev.Kind != "job" {
			continue
		}
		if ev.JobID != st.ID || ev.SpecFingerprint != fin.SpecFingerprint {
			t.Errorf("job identity = (%s, %s), want (%s, %s)",
				ev.JobID, ev.SpecFingerprint, st.ID, fin.SpecFingerprint)
		}
		if ev.Points != fin.DonePoints {
			t.Errorf("points = %d, want %d", ev.Points, fin.DonePoints)
		}
		if ev.RunUS <= 0 || ev.QueueWaitUS < 0 {
			t.Errorf("durations: run %dus queue %dus", ev.RunUS, ev.QueueWaitUS)
		}
		if ev.Phases["point"].Count != fin.Points {
			t.Errorf("phase rollup point count = %d, want %d",
				ev.Phases["point"].Count, fin.Points)
		}
	}
}

// TestLedgerCancelQueuedEmitsOneEvent pins the exactly-once contract
// on the cancel path: the queued job's event comes from handleCancel,
// the running job's from finishJob, never both.
func TestLedgerCancelQueuedEmitsOneEvent(t *testing.T) {
	dir := t.TempDir()
	opts := Options{QueueCap: 2, LedgerDir: dir}
	s, hs, release := blockedServer(t, opts)

	a, _ := submit(t, hs.URL, smallSpec())
	waitState(t, hs.URL, a.ID, StateRunning) // worker parks A
	b, _ := submit(t, hs.URL, smallSpec())   // B waits in queue
	if st := cancelJob(t, hs.URL, b.ID); st.State != StateCanceled {
		t.Fatalf("queued cancel: state %s, want canceled", st.State)
	}
	close(release)
	waitState(t, hs.URL, a.ID, StateDone)

	s.Close()
	events, err := ledger.Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	sum := ledger.Summarize(events)
	if sum["job:canceled"] != 1 || sum["job:done"] != 1 {
		t.Fatalf("summary %v, want one job:canceled and one job:done", sum)
	}
	for _, ev := range events {
		if ev.Kind == "job" && ev.Outcome == string(StateCanceled) {
			if ev.JobID != b.ID {
				t.Errorf("canceled event for %s, want %s", ev.JobID, b.ID)
			}
			if ev.RunUS != 0 {
				t.Errorf("canceled-while-queued job has run time %dus", ev.RunUS)
			}
			if ev.QueueWaitUS <= 0 {
				t.Errorf("canceled-while-queued job has no queue wait")
			}
			if len(ev.Phases) != 0 {
				t.Errorf("never-ran job has phases %v", ev.Phases)
			}
		}
	}
}

// TestObservabilityDisabledByDefault pins the nil path: zero Options
// build no watchdog and no ledger, the created span tracer buffers no
// records (only the ledger reads them back) while still feeding the
// span histograms, and the removed history, SLO and ops-dashboard
// routes 404.
func TestObservabilityDisabledByDefault(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	if s.Ledger() != nil || s.dog != nil {
		t.Fatal("observability subsystems built despite zero Options")
	}
	for _, path := range []string{"/v1/query?metric=x", "/v1/slo", "/dash"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	// Jobs still run exactly as before.
	st, _ := submit(t, hs.URL, smallSpec())
	waitState(t, hs.URL, st.ID, StateDone)
	if n := s.spans.Len(); n != 0 {
		t.Errorf("span tracer buffered %d records without a ledger", n)
	}
	if n := s.Registry().Histogram("span.job_us").Count(); n != 1 {
		t.Errorf("span.job_us count = %d, want 1", n)
	}
}

// TestLedgerPhasesSurviveSpanBufferWrap runs jobs through a span
// buffer far smaller than their span trees: the buffer evicts the
// oldest records, so each job's own just-finished subtree is still
// there to roll up, and every job event carries its phases.
func TestLedgerPhasesSurviveSpanBufferWrap(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	spans := span.NewTracer(reg, 40)
	s, hs := newTestServer(t, Options{Workers: 1, Registry: reg, Spans: spans, LedgerDir: dir})
	for i := 0; i < 4; i++ {
		st, _ := submit(t, hs.URL, smallSpec())
		waitState(t, hs.URL, st.ID, StateDone)
	}
	if spans.Dropped() == 0 {
		t.Fatal("span buffer never wrapped; shrink its capacity")
	}

	s.Close()
	events, err := ledger.Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	var jobs int
	for _, ev := range events {
		if ev.Kind != "job" {
			continue
		}
		jobs++
		if len(ev.Phases) == 0 {
			t.Errorf("job %s event has no phases", ev.JobID)
		}
	}
	if jobs != 4 {
		t.Fatalf("got %d job events, want 4", jobs)
	}
}
