package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/slo"
)

// obsOptions returns Options with the full observability stack on and
// every timescale shrunk to test speed.
func obsOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		History:          true,
		HistoryInterval:  5 * time.Millisecond,
		SLOWindows:       slo.Windows{Fast: 250 * time.Millisecond, Slow: 2 * time.Second},
		StallTimeout:     30 * time.Millisecond,
		WatchdogInterval: 10 * time.Millisecond,
		DumpDir:          t.TempDir(),
		LedgerDir:        t.TempDir(),
	}
}

// sloVerdict fetches and decodes /v1/slo.
func sloVerdict(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/slo")
	if err != nil {
		t.Fatalf("GET /v1/slo: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/slo: %d", resp.StatusCode)
	}
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode /v1/slo: %v", err)
	}
	return v
}

// TestWatchdogStallDetection is the injected-stall proof: a parked
// worker makes no progress, the watchdog flags the job sticky, counts
// it, captures one goroutine dump, the stall flips /v1/slo to burning,
// and the job still produces exactly one ledger event at the end.
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

	// The stall burns the job_stalls objective on both windows once the
	// scraper has seen it across the fast window.
	deadline = time.Now().Add(5 * time.Second)
	for {
		v := sloVerdict(t, hs.URL)
		burning := false
		for _, o := range v["objectives"].([]any) {
			obj := o.(map[string]any)
			if obj["objective"] == "job_stalls" && obj["burning"] == true {
				burning = true
			}
		}
		if burning {
			if v["burning"] != true {
				t.Error("top-level burning false while job_stalls burns")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/v1/slo never flipped job_stalls to burning")
		}
		time.Sleep(10 * time.Millisecond)
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
// build no history store, no SLO engine, no watchdog and no ledger,
// and the new endpoints 404.
func TestObservabilityDisabledByDefault(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	if s.History() != nil || s.SLO() != nil || s.Ledger() != nil || s.dog != nil {
		t.Fatal("observability subsystems built despite zero Options")
	}
	for _, path := range []string{"/v1/query?metric=x", "/v1/slo", "/dash"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404 when disabled", path, resp.StatusCode)
		}
	}
	// Jobs still run exactly as before.
	st, _ := submit(t, hs.URL, smallSpec())
	waitState(t, hs.URL, st.ID, StateDone)
}

// TestHistoryQueryServesScrapedSeries exercises the mounted /v1/query
// against live server metrics and checks the ops dashboard is served.
func TestHistoryQueryServesScrapedSeries(t *testing.T) {
	opts := Options{
		Workers:         1,
		History:         true,
		HistoryInterval: 5 * time.Millisecond,
		SLOWindows:      slo.Windows{Fast: 250 * time.Millisecond, Slow: 2 * time.Second},
	}
	_, hs := newTestServer(t, opts)
	st, _ := submit(t, hs.URL, smallSpec())
	waitState(t, hs.URL, st.ID, StateDone)

	// The scraper needs a beat to capture the post-completion counters.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/v1/query?metric=serve.jobs_completed&since=10s")
		if err != nil {
			t.Fatal(err)
		}
		var qr struct {
			Series []struct {
				Points []struct{ Value float64 }
			}
		}
		err = json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if err == nil && len(qr.Series) == 1 && len(qr.Series[0].Points) > 0 &&
			qr.Series[0].Points[len(qr.Series[0].Points)-1].Value >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/v1/query never served the scraped serve.jobs_completed series")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(hs.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /dash = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("dash content type %q", ct)
	}
}
