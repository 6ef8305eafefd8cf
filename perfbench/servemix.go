package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/resultcache"
	"repro/internal/serve"
	"repro/internal/serve/spec"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/workload"
)

// The serve-mixed study mix.
const (
	// servePoolStep spaces the catalog workloads the specs draw from:
	// every seventh (8 workloads, 2 of each class), the same pool for
	// every seed so the cost of the mix does not change with the seed.
	servePoolStep     = 7
	serveWorkloads    = 2     // workloads per study
	serveDepths       = 4     // depths per study
	serveInstructions = 30000 // measured instructions per point (default warm-up)
	freshOneIn        = 4     // about one spec in freshOneIn is fresh
	verifyClients     = 2     // client sequences whose first fresh specs are verified
	verifyPerClient   = 2     // fresh specs per verified client sequence
	serveSpanCap      = 1 << 21
)

// serveSetup is a depthd server running in-process on a loopback
// listener, with an on-disk result cache and a memo warmed over the
// study mix's workload pool.
type serveSetup struct {
	dir    string
	cache  *resultcache.Cache
	srv    *serve.Server
	base   string
	cancel context.CancelFunc
	done   chan error
	pool   []string
	spans  *span.Tracer
	clk    clock
}

func setupServe(o passOpts) (*serveSetup, error) {
	s := &serveSetup{}
	var err error
	if s.dir, err = os.MkdirTemp(o.tmp, "resultcache-"); err != nil {
		return nil, err
	}
	if s.cache, err = resultcache.Open(resultcache.Options{Dir: s.dir}); err != nil {
		s.close()
		return nil, err
	}
	reg := telemetry.NewRegistry()
	if o.traced {
		s.spans, s.clk = newTracedClock(reg, serveSpanCap)
	}
	s.srv, err = serve.New(serve.Options{
		Workers:     o.parallelism,
		QueueCap:    4 * o.parallelism,
		Parallelism: o.parallelism,
		Cache:       s.cache,
		Registry:    reg,
		Spans:       s.spans,
		// The default handler would log every request inside the
		// timed window.
		Log: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1})),
	})
	if err != nil {
		s.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel, s.done = cancel, make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ctx, ln, 30*time.Second) }()

	names := workload.Names()
	for i := 0; i < len(names); i += servePoolStep {
		s.pool = append(s.pool, names[i])
	}
	// Warm the process-wide memo (packed traces and warmed model
	// donors) for the pool, as a long-running server's would be.
	warm := spec.Spec{Workloads: s.pool, Depths: []int{2}, Instructions: serveInstructions}
	cfg, err := warm.StudyConfig()
	if err != nil {
		s.shutdown()
		return nil, err
	}
	profs, err := warm.Profiles()
	if err != nil {
		s.shutdown()
		return nil, err
	}
	cfg.Parallelism = o.parallelism
	if _, err := core.RunCatalog(cfg, profs); err != nil {
		s.shutdown()
		return nil, err
	}
	resp, err := http.Get(s.base + "/readyz")
	if err != nil {
		s.shutdown()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.shutdown()
		return nil, fmt.Errorf("readyz: %s", resp.Status)
	}
	return s, nil
}

// shutdown drains the server, waits for it to stop and removes the
// cache directory.
func (s *serveSetup) shutdown() {
	s.cancel()
	<-s.done
	s.close()
}

func (s *serveSetup) close() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// specMaker yields one client's deterministic spec sequence: the first
// spec and about one in freshOneIn after it are fresh (a new leakage
// fraction makes every one of its points a result-cache miss while the
// memo stays warm); the rest repeat a fresh spec the client already
// submitted.
type specMaker struct {
	r      *rng
	client int
	pool   []string
	fresh  []spec.Spec
}

func newSpecMaker(seed uint64, client int, pool []string) *specMaker {
	return &specMaker{r: newRNG(seed, uint64(streamServeClient)<<32|uint64(client)), client: client, pool: pool}
}

func (m *specMaker) next() (spec.Spec, bool) {
	if len(m.fresh) > 0 && m.r.intn(freshOneIn) != 0 {
		return m.fresh[m.r.intn(len(m.fresh))], false
	}
	var ws []string
	for _, i := range m.r.pick(len(m.pool), serveWorkloads) {
		ws = append(ws, m.pool[i])
	}
	var ds []int
	for _, i := range m.r.pick(24, serveDepths) {
		ds = append(ds, i+2)
	}
	leak := 0.15 + float64(m.client*100000+len(m.fresh)+1)*1e-7
	sp := spec.Spec{Workloads: ws, Depths: ds, Instructions: serveInstructions, LeakageFraction: &leak}
	m.fresh = append(m.fresh, sp)
	return sp, true
}

// client is one closed-loop client: it submits a study, waits for it
// on the job's SSE stream (as the README directs clients to), reads its
// status, fetches the result, and only then sends the next.
type client struct {
	base string
	hc   *http.Client
	mk   *specMaker

	freshMS, repeatMS            []float64
	submitUS, statusUS, resultUS []float64
	queueMS, runMS               []float64
	requests, resultBytes        int
	points, rejected             int
	check                        tally
	first                        map[string][]byte // spec fingerprint → first served bytes
}

// call performs one request and returns its status, body and latency.
func (c *client) call(method, path string, body []byte) (int, []byte, time.Duration, error) {
	t := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.requests++
	return resp.StatusCode, data, time.Since(t), err
}

// lastEvent returns the last frame of an SSE body.
func lastEvent(body []byte) (serve.Event, error) {
	var ev serve.Event
	i := bytes.LastIndex(body, []byte("data: "))
	if i < 0 {
		return ev, fmt.Errorf("no SSE frame in %q", body)
	}
	line, _, _ := bytes.Cut(body[i+len("data: "):], []byte("\n"))
	return ev, json.Unmarshal(line, &ev)
}

// study drives one spec through submit → events → status → result.
func (c *client) study(sp spec.Spec, fresh bool) error {
	t0 := time.Now()
	payload, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	code, body, d, err := c.call(http.MethodPost, "/v1/studies", payload)
	if err != nil {
		return err
	}
	c.submitUS = append(c.submitUS, float64(d.Nanoseconds())/1e3)
	if code != http.StatusAccepted {
		c.rejected++
		return fmt.Errorf("submit: %d %s", code, body)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	id := st.ID
	// The stream replays the job's history and closes after its
	// terminal frame.
	code, body, _, err = c.call(http.MethodGet, "/v1/studies/"+id+"/events", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("events %s: %d %s", id, code, body)
	}
	ev, err := lastEvent(body)
	if err != nil {
		return fmt.Errorf("events %s: %w", id, err)
	}
	if ev.Kind != "done" || ev.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, ev.State, ev.Error)
	}
	code, body, d, err = c.call(http.MethodGet, "/v1/studies/"+id, nil)
	if err != nil {
		return err
	}
	c.statusUS = append(c.statusUS, float64(d.Nanoseconds())/1e3)
	if code != http.StatusOK {
		return fmt.Errorf("status %s: %d %s", id, code, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s is %s after its done frame", id, st.State)
	}
	code, body, d, err = c.call(http.MethodGet, "/v1/studies/"+id+"/result", nil)
	if err != nil {
		return err
	}
	c.resultUS = append(c.resultUS, float64(d.Nanoseconds())/1e3)
	if code != http.StatusOK {
		return fmt.Errorf("result %s: %d %s", id, code, body)
	}
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if fresh {
		c.freshMS = append(c.freshMS, ms)
	} else {
		c.repeatMS = append(c.repeatMS, ms)
	}
	c.points += st.Points
	c.resultBytes += len(body)
	sub, e1 := time.Parse(time.RFC3339Nano, st.SubmittedAt)
	beg, e2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	fin, e3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if e1 == nil && e2 == nil && e3 == nil {
		c.queueMS = append(c.queueMS, float64(beg.Sub(sub).Nanoseconds())/1e6)
		c.runMS = append(c.runMS, float64(fin.Sub(beg).Nanoseconds())/1e6)
	}
	fp := st.SpecFingerprint
	if prev, ok := c.first[fp]; ok {
		if !bytes.Equal(prev, body) {
			return fmt.Errorf("repeat of %s returned bytes different from its first serving", fp)
		}
	} else {
		c.first[fp] = body
	}
	return nil
}

// runServePass runs the closed loop for o.seconds against a fresh
// in-process server, then verifies a fixed sample of fresh studies
// against direct core.RunCatalog runs outside the timed window.
func runServePass(o passOpts) (passResult, error) {
	var res passResult
	t := time.Now()
	s, err := setupServe(o)
	if err != nil {
		return res, err
	}
	res.SetupS = []float64{time.Since(t).Seconds()}
	if o.setupOnly {
		s.shutdown()
		return res, nil
	}
	defer s.shutdown()

	clients := make([]*client, o.parallelism)
	for c := range clients {
		clients[c] = &client{
			base:  s.base,
			hc:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
			mk:    newSpecMaker(o.seed, c, s.pool),
			first: map[string][]byte{},
		}
	}
	alloc0 := totalAllocMB()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sp, fresh := c.mk.next()
				c.check.note(c.study(sp, fresh))
			}
		}(c)
	}
	wg.Wait()
	end := time.Now()
	alloc1 := totalAllocMB()
	res.WallS = end.Sub(start).Seconds()
	res.RSSMB = peakRSSMB()

	var submitUS, statusUS, resultUS, queueMS, runMS []float64
	var requests, resultBytes, rejected int
	for _, c := range clients {
		res.FreshMS = append(res.FreshMS, c.freshMS...)
		res.RepeatMS = append(res.RepeatMS, c.repeatMS...)
		submitUS = append(submitUS, c.submitUS...)
		statusUS = append(statusUS, c.statusUS...)
		resultUS = append(resultUS, c.resultUS...)
		queueMS = append(queueMS, c.queueMS...)
		runMS = append(runMS, c.runMS...)
		requests += c.requests
		resultBytes += c.resultBytes
		rejected += c.rejected
		res.Points += c.points
		res.Check.add(c.check)
	}
	res.Studies = len(res.FreshMS) + len(res.RepeatMS)
	if res.Studies == 0 {
		return res, fmt.Errorf("no study completed in %.1fs", o.seconds)
	}

	// Verification: the first fresh specs of a fixed set of client
	// sequences (replayed, so the set does not depend on how many
	// clients ran or how far they got) are run directly through core
	// and folded exactly as the server folds them; each one a client
	// served must equal the served bytes.
	var sweeps []*core.Sweep
	var cfgs []core.StudyConfig
	for c := 0; c < verifyClients; c++ {
		mk := newSpecMaker(o.seed, c, s.pool)
		for len(mk.fresh) < verifyPerClient {
			mk.next()
		}
		for _, sp := range mk.fresh {
			cfg, err := sp.StudyConfig()
			if err != nil {
				return res, err
			}
			profs, err := sp.Profiles()
			if err != nil {
				return res, err
			}
			cfg.Parallelism = o.parallelism
			sw, err := core.RunCatalog(cfg, profs)
			if err != nil {
				return res, err
			}
			if c < len(clients) {
				if served, ok := clients[c].first[sp.Fingerprint()]; ok {
					direct, err := json.Marshal(serve.BuildResult(sp, sw))
					if err != nil {
						return res, err
					}
					if !bytes.Equal(direct, served) {
						res.Check.note(fmt.Errorf("served result of %s differs from a direct run", sp.Fingerprint()))
					} else {
						res.Check.note(nil)
					}
				}
			}
			res.Check.add(checkSweeps(sw, serveInstructions))
			for range sw {
				cfgs = append(cfgs, cfg)
			}
			sweeps = append(sweeps, sw...)
		}
	}
	res.Check.add(crossCheckSample(cfgs, sweeps, o.seed, crossCheckN))
	var opts []core.Optimum
	for _, sw := range sweeps {
		if o, err := sw.FindOptimum(metrics.BIPS3PerWatt, true); err == nil {
			opts = append(opts, o)
		}
	}
	res.Digest = digest(sweeps)
	res.Sim = simStatsOf(sweeps, opts, nil)
	sweeps = nil
	res.HeapMB = heapRetainedMB()

	st := s.cache.Stats()
	layers := map[string]float64{
		"alloc_mb_per_point": (alloc1 - alloc0) / float64(max(res.Points, 1)),
		"submit_p50_us":      quantile(submitUS, 0.5),
		"submit_n":           float64(len(submitUS)),
		"status_n":           float64(len(statusUS)),
		"result_n":           float64(len(resultUS)),
		"status_p50_us":      quantile(statusUS, 0.5),
		"result_p50_us":      quantile(resultUS, 0.5),
		"queue_wait_p50_ms":  quantile(queueMS, 0.5),
		"queue_wait_p95_ms":  quantile(queueMS, 0.95),
		"queue_wait_n":       float64(len(queueMS)),
		"job_run_p50_ms":     quantile(runMS, 0.5),
		"requests_per_study": float64(requests) / float64(res.Studies),
		"result_kb":          float64(resultBytes) / 1024 / float64(res.Studies),
		"rejected":           float64(rejected),
		"hit_ratio":          st.HitRate(),
		"stores":             float64(st.Stores),
		"cache_errors":       float64(st.Errors + st.Corrupt),
	}
	if o.traced {
		// Only the server's own spans count: the time they leave
		// uncovered is the client, loopback TCP and net/http outside
		// the handlers.
		sl := analyzeSpans(s.spans)
		sl.flatten(layers)
		w := s.clk.interval(start, end)
		covered := coverage([]interval{w}, sl.covered)
		layers["unattributed_frac"] = 1 - float64(covered)/float64(w.End-w.Start)
	}
	res.Layers = layers
	return res, nil
}
