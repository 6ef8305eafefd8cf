package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/workload"
)

// syncBuf is a goroutine-safe buffer: the boot test reads stdout while
// run is still writing to it.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

func TestRunHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if !strings.Contains(errb.String(), "-queue-cap") {
		t.Errorf("usage text missing flags:\n%s", errb.String())
	}
}

func TestRunBadLogLevel(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-log-level", "shout"}, &out, &errb); code != 2 {
		t.Errorf("bad log level: exit %d, want 2", code)
	}
}

func TestRunBadListenAddr(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-addr", "256.0.0.1:bogus"}, &out, &errb); code != 1 {
		t.Errorf("bad addr: exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "listen") {
		t.Errorf("stderr missing listen error:\n%s", errb.String())
	}
}

// bootDepthd starts run() with the given extra flags and returns the
// resolved base URL (parsed from the announced listen line) plus the
// exit-code channel.
func bootDepthd(t *testing.T, ctx context.Context, extra ...string) (string, chan int) {
	t.Helper()
	var stdout syncBuf
	done := make(chan int, 1)
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-workers", "1",
		"-drain-timeout", "10s",
	}, extra...)
	go func() { done <- run(ctx, args, &stdout, io.Discard) }()

	// The first stdout line announces the resolved address.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no listen line in stdout: %q", stdout.String())
		}
		if s := stdout.String(); strings.Contains(s, "depthd listening on ") {
			line := s[strings.Index(s, "depthd listening on ")+len("depthd listening on "):]
			return "http://" + strings.TrimSpace(strings.SplitN(line, "\n", 2)[0]), done
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBootSubmitDrain boots a real depthd on a random port, drives one
// study over HTTP, then shuts it down via context cancellation and
// checks the graceful-drain exit path.
func TestBootSubmitDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, done := bootDepthd(t, ctx, "-cache-dir", t.TempDir())
	deadline := time.Now().Add(10 * time.Second)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{"workloads":["` + workload.Names()[0] + `"],"depths":[4,8],"instructions":2000,"warmup":-1}`
	resp, err = http.Post(base+"/v1/studies", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	for st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(base + "/v1/studies/" + st.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		r.Body.Close()
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("graceful shutdown: exit %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("depthd did not exit after context cancel")
	}
}

// TestBootObservabilityFlags boots depthd with the full observability
// flag set, runs a study, and checks /metrics reports it and the
// ledger reaches disk on drain.
func TestBootObservabilityFlags(t *testing.T) {
	// depthd keeps no metrics history: the -tsdb* flags fail at parse
	// time instead of booting.
	for _, removed := range []string{"-tsdb", "-tsdb-interval", "-tsdb-retain"} {
		if code := run(context.Background(), []string{removed, "1"}, io.Discard, io.Discard); code != 2 {
			t.Errorf("depthd %s: exit %d, want 2 (unknown flag)", removed, code)
		}
	}

	ledgerDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, done := bootDepthd(t, ctx,
		"-ledger-dir", ledgerDir,
		"-stall-timeout", "30s", "-dump-dir", t.TempDir(),
	)

	body := `{"workloads":["` + workload.Names()[0] + `"],"depths":[4,8],"instructions":2000,"warmup":-1}`
	resp, err := http.Post(base+"/v1/studies", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(15 * time.Second)
	for st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(base + "/v1/studies/" + st.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		r.Body.Close()
	}

	r, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	exposition, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, %v", r.StatusCode, err)
	}
	if !strings.Contains(string(exposition), "\nserve_jobs_completed 1\n") {
		t.Errorf("/metrics lacks serve_jobs_completed 1:\n%s", exposition)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("graceful shutdown: exit %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("depthd did not exit after context cancel")
	}
	events, err := ledger.Replay(ledgerDir)
	if err != nil {
		t.Fatalf("ledger replay: %v", err)
	}
	if sum := ledger.Summarize(events); sum["job:done"] != 1 {
		t.Errorf("ledger summary %v, want one job:done", sum)
	}
}
