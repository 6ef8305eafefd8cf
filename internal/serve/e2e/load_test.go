package e2e

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/serve"
	"repro/internal/serve/spec"
	"repro/internal/slo"
	"repro/internal/workload"
)

// TestLoadCachedRepeatsAreCacheLookups is the load harness: N
// concurrent clients hammer the server, a warm wave first fills the
// cache, then every repeat submission of the same spec must complete
// without re-simulating a single design point — asserted through the
// engine's own telemetry counters, not timing. The full observability
// stack runs underneath the load (history scraper, SLO engine,
// request/job ledger), so the test also proves the /v1/query p99
// agrees with the live registry under fire and that the ledger holds
// exactly one event per job.
func TestLoadCachedRepeatsAreCacheLookups(t *testing.T) {
	const (
		clients   = 8
		perClient = 4
	)
	ledgerDir := t.TempDir()
	h := Boot(t, serve.Options{
		Workers: 4, QueueCap: 128,
		History:         true,
		HistoryInterval: 25 * time.Millisecond,
		SLOWindows:      slo.Windows{Fast: time.Second, Slow: 10 * time.Second},
		LedgerDir:       ledgerDir,
		LedgerCap:       1 << 16, // no shedding in-test: job counts assert exactly
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

	// History proof: the p99 served by /v1/query over the run agrees
	// with the live registry histogram and sits below the slowest
	// client round trip (every request belongs to some round trip; the
	// 2× slack absorbs the histogram's power-of-two bucket rounding).
	q99 := queryP99(t, h, "span.request_us")
	live := h.Registry().Histogram("span.request_us").Quantile(0.99)
	if q99 < live/2 || q99 > live*2 {
		t.Errorf("/v1/query p99 = %.0fµs, live registry p99 = %.0fµs; want within one bucket",
			q99, live)
	}
	if q99 <= 0 || q99 > 2*lr.RoundTrip.MaxUS {
		t.Errorf("/v1/query p99 = %.0fµs outside (0, 2×max round trip %.0fµs]",
			q99, lr.RoundTrip.MaxUS)
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

// queryP99 polls /v1/query until the scraper has caught up with the
// live histogram, then returns the served quantile-over-time.
func queryP99(t *testing.T, h *Harness, metric string) float64 {
	t.Helper()
	liveCount := h.Registry().Histogram(metric).Count()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := h.client.Get(h.Base + "/v1/query?metric=" + metric + "&fn=raw&since=2s")
		if err != nil {
			t.Fatalf("GET /v1/query: %v", err)
		}
		var qr struct {
			Series []struct {
				Points []struct{ Count uint64 }
			}
		}
		err = json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if err == nil && len(qr.Series) == 1 {
			if pts := qr.Series[0].Points; len(pts) > 0 && pts[len(pts)-1].Count >= liveCount {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("scraper never caught up to %d %s observations", liveCount, metric)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := h.client.Get(h.Base + "/v1/query?metric=" + metric +
		"&fn=quantile&q=0.99&since=" + fmt.Sprintf("%ds", int(time.Since(h.bootAt).Seconds())+5))
	if err != nil {
		t.Fatalf("GET /v1/query quantile: %v", err)
	}
	defer resp.Body.Close()
	var qr struct {
		Series []struct {
			Value *float64 `json:"value"`
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decode quantile: %v", err)
	}
	if len(qr.Series) != 1 || qr.Series[0].Value == nil {
		t.Fatalf("quantile query returned no value")
	}
	return *qr.Series[0].Value
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
