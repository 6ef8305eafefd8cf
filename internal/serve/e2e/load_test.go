package e2e

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/serve"
	"repro/internal/serve/spec"
	"repro/internal/workload"
)

// TestLoadCachedRepeatsAreCacheLookups is the load harness: N
// concurrent clients hammer the server, a warm wave first fills the
// cache, then every repeat submission of the same spec must complete
// without re-simulating a single design point — asserted through the
// engine's own telemetry counters, not timing. The request/job ledger
// runs underneath the load, so the test also proves that the /metrics
// exposition accounts for every client request and that the ledger
// holds exactly one event per job.
func TestLoadCachedRepeatsAreCacheLookups(t *testing.T) {
	const (
		clients   = 8
		perClient = 4
	)
	ledgerDir := t.TempDir()
	h := Boot(t, serve.Options{
		Workers: 4, QueueCap: 128,
		LedgerDir: ledgerDir,
		LedgerCap: 1 << 16, // no shedding in-test: job counts assert exactly
	})
	names := workload.Names()
	sp := spec.Spec{
		Workloads:    []string{names[0], names[1], names[2]},
		Depths:       []int{4, 8, 12, 16},
		Instructions: 2000,
		Warmup:       -1,
	}

	// Warm wave: one run simulates every point exactly once.
	warm := h.Submit(t, sp)
	fin := h.WaitDone(t, warm.ID, serve.StateDone)
	if fin.Points != sp.Points() {
		t.Fatalf("warm run points = %d, want %d", fin.Points, sp.Points())
	}
	simulatedAfterWarm := h.Counter("sweep.points_completed") - h.Counter("sweep.cache_hits")
	if simulatedAfterWarm != uint64(sp.Points()) {
		t.Fatalf("warm run simulated %d points, want %d", simulatedAfterWarm, sp.Points())
	}
	warmResult := h.ResultBytes(t, warm.ID)

	// Load wave: every client repeats the identical spec.
	lr := h.RunLoad(t, clients, perClient, func(c, i int) spec.Spec { return sp })

	// O(cache lookup): the simulated-point count did not move — all
	// load-wave points were served from the result cache.
	simulatedAfterLoad := h.Counter("sweep.points_completed") - h.Counter("sweep.cache_hits")
	if simulatedAfterLoad != simulatedAfterWarm {
		t.Errorf("load wave re-simulated %d points; repeats must be cache lookups",
			simulatedAfterLoad-simulatedAfterWarm)
	}
	wantHits := uint64(clients * perClient * sp.Points())
	if hits := h.Counter("sweep.cache_hits"); hits < wantHits {
		t.Errorf("sweep.cache_hits = %d, want >= %d", hits, wantHits)
	}
	if h.Counter("serve.jobs_failed") != 0 || h.Counter("serve.jobs_canceled") != 0 {
		t.Errorf("load wave had failures/cancels: failed=%d canceled=%d",
			h.Counter("serve.jobs_failed"), h.Counter("serve.jobs_canceled"))
	}

	// Every served repeat is byte-identical to the warm result.
	for _, id := range doneJobIDs(t, h) {
		if got := string(h.ResultBytes(t, id)); got != string(warmResult) {
			t.Errorf("job %s result differs from warm result", id)
			break
		}
	}

	if lr.RoundTrip.Count != uint64(lr.Studies) {
		t.Errorf("latency samples = %d, want %d", lr.RoundTrip.Count, lr.Studies)
	}
	t.Logf("load: %d studies, %d requests in %.3fs (round-trip p50 %.0fµs p95 %.0fµs p99 %.0fµs)",
		lr.Studies, lr.Requests, lr.WallSec,
		lr.RoundTrip.P50US, lr.RoundTrip.P95US, lr.RoundTrip.P99US)

	// Scrape proof: the exposed span_request_us count covers every
	// load-wave client request (the warm wave's requests add to it).
	if got := exposedCount(t, h, "span_request_us", lr.Requests); got < lr.Requests {
		t.Errorf("/metrics span_request_us_count = %d, want >= %d client requests",
			got, lr.Requests)
	}

	// Ledger proof: drain the server (flushes the writer), then replay
	// the file — exactly one job event per study, all done, none shed.
	if dropped := h.Server.Ledger().Dropped(); dropped != 0 {
		t.Errorf("ledger dropped %d events under load with a %d-deep queue", dropped, 1<<16)
	}
	if err := h.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	events, err := ledger.Replay(ledgerDir)
	if err != nil {
		t.Fatalf("ledger replay: %v", err)
	}
	sum := ledger.Summarize(events)
	wantJobs := lr.Studies + 1 // load wave + warm run
	if sum["job:done"] != wantJobs || sum["job:failed"] != 0 || sum["job:canceled"] != 0 {
		t.Errorf("ledger job events %v, want exactly %d job:done", sum, wantJobs)
	}
	if uint64(sum["request"]) < lr.Requests {
		t.Errorf("ledger request events = %d, want >= %d client requests",
			sum["request"], lr.Requests)
	}
}

// exposedCount polls /metrics until the histogram family's _count
// reaches want, returning the last value seen. A request's span ends
// just after its response is written, so the newest requests can trail
// the client by a moment.
func exposedCount(t *testing.T, h *Harness, family string, want uint64) uint64 {
	t.Helper()
	prefix := family + "_count "
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got uint64
		for _, line := range strings.Split(h.Metrics(t), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				got, _ = strconv.ParseUint(v, 10, 64)
			}
		}
		if got >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// doneJobIDs lists every done job currently retained by the server.
func doneJobIDs(t *testing.T, h *Harness) []string {
	t.Helper()
	var out []string
	for _, st := range listJobs(t, h) {
		if st.State == serve.StateDone {
			out = append(out, st.ID)
		}
	}
	return out
}

func listJobs(t *testing.T, h *Harness) []serve.JobStatus {
	t.Helper()
	resp, err := h.client.Get(h.Base + "/v1/studies")
	if err != nil {
		t.Fatalf("GET /v1/studies: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []serve.JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode job list: %v", err)
	}
	return out.Jobs
}
