// Package e2e boots a real depthd study server on a random port and
// drives it over actual HTTP — submit, SSE streaming, result fetch,
// cancellation, metrics scraping — plus a concurrent load generator
// with client-side latency quantiles. The tests in this package are
// the server's end-to-end proof: a served study is bit-identical to a
// direct core.RunCatalog run, and a repeated study is a cache lookup,
// not a re-simulation.
package e2e

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/spec"
	"repro/internal/telemetry"
)

// Harness is a booted depthd instance plus an HTTP client aimed at it.
type Harness struct {
	// Base is the server's root URL (http://127.0.0.1:<port>).
	Base string
	// Server is the underlying serve.Server, for registry assertions.
	Server *serve.Server

	client *http.Client
	cancel context.CancelFunc
	done   chan error
	bootAt time.Time
}

// Boot starts a study server on 127.0.0.1:0 behind a real net/http
// listener (the same Serve lifecycle cmd/depthd uses) and returns the
// harness. The server is shut down (graceful drain) at test cleanup.
func Boot(t *testing.T, opts serve.Options) *Harness {
	t.Helper()
	s, err := serve.New(opts)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &Harness{
		Base:   "http://" + ln.Addr().String(),
		Server: s,
		client: &http.Client{},
		cancel: cancel,
		done:   make(chan error, 1),
		bootAt: time.Now(),
	}
	go func() { h.done <- s.Serve(ctx, ln, 30*time.Second) }()
	t.Cleanup(func() {
		if err := h.Shutdown(); err != nil {
			t.Errorf("harness shutdown: %v", err)
		}
	})
	return h
}

// Shutdown cancels the server context and waits for the graceful
// drain to finish. Safe to call more than once.
func (h *Harness) Shutdown() error {
	h.cancel()
	select {
	case err := <-h.done:
		h.done <- err // keep for repeat callers
		return err
	case <-time.After(60 * time.Second):
		return fmt.Errorf("e2e: server did not drain within 60s")
	}
}

// Submit posts a study spec and returns the accepted job status. Any
// non-202 response is a fatal test error.
func (h *Harness) Submit(t *testing.T, sp spec.Spec) serve.JobStatus {
	t.Helper()
	st, code, body := h.TrySubmit(t, sp)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d: %s", code, body)
	}
	return st
}

// TrySubmit posts a study spec and returns whatever came back,
// letting admission-control tests inspect 4xx/5xx responses.
func (h *Harness) TrySubmit(t *testing.T, sp spec.Spec) (serve.JobStatus, int, string) {
	t.Helper()
	payload, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := h.client.Post(h.Base+"/v1/studies", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST /v1/studies: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read submit body: %v", err)
	}
	var st serve.JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return st, resp.StatusCode, buf.String()
}

// Status fetches a job's status.
func (h *Harness) Status(t *testing.T, id string) serve.JobStatus {
	t.Helper()
	resp, err := h.client.Get(h.Base + "/v1/studies/" + id)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %s: %d", id, resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// WaitDone polls until the job reaches the wanted terminal state,
// failing fast on any other terminal state.
func (h *Harness) WaitDone(t *testing.T, id string, want serve.State) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := h.Status(t, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s ended %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ResultBytes fetches a done job's result payload verbatim.
func (h *Harness) ResultBytes(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := h.client.Get(h.Base + "/v1/studies/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read result: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result %s: %d: %s", id, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// Cancel issues DELETE on the job and returns the reported status.
func (h *Harness) Cancel(t *testing.T, id string) serve.JobStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, h.Base+"/v1/studies/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode cancel response: %v", err)
	}
	return st
}

// StreamEvents subscribes to a job's SSE feed and returns every event
// until the stream closes (terminal frame) or ctx expires.
func (h *Harness) StreamEvents(t *testing.T, ctx context.Context, id string) []serve.Event {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.Base+"/v1/studies/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events %s: %d", id, resp.StatusCode)
	}
	var events []serve.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		events = append(events, ev)
	}
	// A ctx-canceled scan error just means the caller stopped listening.
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		t.Fatalf("scan events: %v", err)
	}
	return events
}

// Metrics scrapes /metrics and returns the Prometheus text body.
func (h *Harness) Metrics(t *testing.T) string {
	t.Helper()
	resp, err := h.client.Get(h.Base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	return buf.String()
}

// Counter reads a counter from the server's registry.
func (h *Harness) Counter(name string) uint64 {
	return h.Server.Registry().Counter(name).Value()
}

// LoadResult summarizes a RunLoad wave: client-observed latencies for
// the submit→done round trip, one entry per request kind.
type LoadResult struct {
	Clients   int
	Studies   int
	Requests  uint64
	WallSec   float64
	RoundTrip Latency // full submit→done→result round trips
}

// Latency holds exact quantiles of raw duration samples, in
// microseconds.
type Latency struct {
	Count  uint64
	MeanUS float64
	P50US  float64
	P95US  float64
	P99US  float64
	MaxUS  float64
}

// RunLoad drives the server with `clients` concurrent clients, each
// submitting `perClient` studies built by mkSpec(client, iteration)
// and driving every one to done. It returns client-side latency
// quantiles computed from the raw samples (no histogram bucketing, so
// the p99 of a small wave is exact).
func (h *Harness) RunLoad(t *testing.T, clients, perClient int, mkSpec func(c, i int) spec.Spec) LoadResult {
	t.Helper()
	var (
		mu       sync.Mutex
		samples  []float64 // microseconds per round trip
		requests uint64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				st := h.Submit(t, mkSpec(c, i))
				n := uint64(2) // submit + final status
				for {
					cur := h.Status(t, st.ID)
					if cur.State == serve.StateDone {
						break
					}
					if cur.State.Terminal() {
						t.Errorf("load job %s ended %s: %s", st.ID, cur.State, cur.Error)
						return
					}
					n++
					time.Sleep(time.Millisecond)
				}
				h.ResultBytes(t, st.ID)
				n++
				us := float64(time.Since(t0).Microseconds())
				mu.Lock()
				samples = append(samples, us)
				requests += n
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res := LoadResult{
		Clients:  clients,
		Studies:  clients * perClient,
		Requests: requests,
		WallSec:  time.Since(start).Seconds(),
	}
	res.RoundTrip = latencyOf(samples)
	return res
}

// latencyOf computes exact quantiles from raw duration samples.
func latencyOf(us []float64) Latency {
	if len(us) == 0 {
		return Latency{}
	}
	sorted := append([]float64(nil), us...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	q := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	return Latency{
		Count:  uint64(len(sorted)),
		MeanUS: sum / float64(len(sorted)),
		P50US:  q(0.50),
		P95US:  q(0.95),
		P99US:  q(0.99),
		MaxUS:  sorted[len(sorted)-1],
	}
}

// Registry exposes the server's registry for histogram digestion.
func (h *Harness) Registry() *telemetry.Registry { return h.Server.Registry() }
