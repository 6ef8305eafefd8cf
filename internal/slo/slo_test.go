package slo

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/promexp"
	"repro/internal/telemetry/tsdb"
)

func newEval(t *testing.T, reg *telemetry.Registry, st *tsdb.Store, objectives []Objective, w Windows) *Evaluator {
	t.Helper()
	e, err := New(Options{Store: st, Registry: reg, Objectives: objectives, Windows: w})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestObjectiveValidation(t *testing.T) {
	good := Objective{Name: "job_error_rate", Kind: ErrorRate,
		Metric: "serve.jobs_failed", Denominator: "serve.jobs_submitted", Target: 0.01}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid objective rejected: %v", err)
	}
	cases := []Objective{
		{Name: "made_up_objective", Kind: ErrorRate, Metric: "m", Denominator: "d", Target: 0.1},
		{Name: "job_error_rate", Kind: ErrorRate, Metric: "", Denominator: "d", Target: 0.1},
		{Name: "job_error_rate", Kind: ErrorRate, Metric: "m", Target: 0.1}, // no denominator
		{Name: "job_error_rate", Kind: ErrorRate, Metric: "m", Denominator: "d"},
		{Name: "request_latency_p99", Kind: Latency, Metric: "m", Quantile: 1, Threshold: 10},
		{Name: "request_latency_p99", Kind: Latency, Metric: "m", Quantile: 0.99},
		{Name: "queue_saturation", Kind: Saturation, Metric: "m", Target: 0.5},
		{Name: "job_stalls", Kind: "bogus", Metric: "m", Target: 1},
	}
	for i, o := range cases {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d (%+v): invalid objective accepted", i, o)
		}
	}

	// New rejects a bad objective and a reversed window pair.
	reg := telemetry.NewRegistry()
	st := tsdb.New(tsdb.Options{Registry: reg})
	if _, err := New(Options{Store: st, Registry: reg, Objectives: []Objective{cases[0]}}); err == nil {
		t.Fatal("New accepted an invalid objective")
	}
	if _, err := New(Options{Store: st, Registry: reg,
		Windows: Windows{Fast: time.Hour, Slow: time.Minute}}); err == nil {
		t.Fatal("New accepted fast >= slow windows")
	}
	if _, err := New(Options{Registry: reg}); err == nil {
		t.Fatal("New accepted a nil store")
	}
}

// TestBurnWindowBoundaries is the window-boundary table: empty window,
// single sample, exact-threshold burn, and just-over-threshold burn
// for each objective kind.
func TestBurnWindowBoundaries(t *testing.T) {
	windows := Windows{Fast: 100 * time.Millisecond, Slow: time.Hour}

	t.Run("error_rate empty window", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		st := tsdb.New(tsdb.Options{Registry: reg})
		e := newEval(t, reg, st, []Objective{{
			Name: "job_error_rate", Kind: ErrorRate,
			Metric: "serve.jobs_failed", Denominator: "serve.jobs_submitted", Target: 0.01,
		}}, windows)
		// No scrape ever happened: both windows empty → not ok, burn 0,
		// not burning.
		rs := e.Evaluate()
		if rs[0].Fast.OK || rs[0].Slow.OK || rs[0].Fast.Burn != 0 || rs[0].Burning {
			t.Fatalf("empty window verdict = %+v, want silent non-alert", rs[0])
		}
	})

	t.Run("error_rate single sample", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		st := tsdb.New(tsdb.Options{Registry: reg})
		reg.Counter("serve.jobs_submitted").Add(100)
		reg.Counter("serve.jobs_failed").Add(50)
		st.Scrape()
		e := newEval(t, reg, st, []Objective{{
			Name: "job_error_rate", Kind: ErrorRate,
			Metric: "serve.jobs_failed", Denominator: "serve.jobs_submitted", Target: 0.01,
		}}, windows)
		// One sample inside both windows, no baseline: deltas count from
		// zero, so the ratio is well-defined — 50% errors at a 1% target
		// burns at 50 in both windows.
		rs := e.Evaluate()
		if !rs[0].Fast.OK || !rs[0].Slow.OK {
			t.Fatalf("single-sample windows not ok: %+v", rs[0])
		}
		if rs[0].Fast.Burn != 50 || rs[0].Slow.Burn != 50 {
			t.Fatalf("burn = %v/%v, want 50/50", rs[0].Fast.Burn, rs[0].Slow.Burn)
		}
		if !rs[0].Burning {
			t.Fatal("50× burn in both windows not flagged burning")
		}
	})

	t.Run("error_rate exact threshold is not burning", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		st := tsdb.New(tsdb.Options{Registry: reg})
		reg.Counter("serve.jobs_submitted").Add(100)
		reg.Counter("serve.jobs_failed").Add(1) // exactly the 1% target
		st.Scrape()
		e := newEval(t, reg, st, []Objective{{
			Name: "job_error_rate", Kind: ErrorRate,
			Metric: "serve.jobs_failed", Denominator: "serve.jobs_submitted", Target: 0.01,
		}}, windows)
		rs := e.Evaluate()
		if rs[0].Fast.Burn != 1 {
			t.Fatalf("burn = %v, want exactly 1", rs[0].Fast.Burn)
		}
		if rs[0].Burning {
			t.Fatal("burn == threshold must not alert (strictly-greater rule)")
		}
	})

	t.Run("error_rate zero denominator", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		st := tsdb.New(tsdb.Options{Registry: reg})
		reg.Counter("serve.jobs_submitted") // exists at 0
		reg.Counter("serve.jobs_failed")
		st.Scrape()
		e := newEval(t, reg, st, []Objective{{
			Name: "job_error_rate", Kind: ErrorRate,
			Metric: "serve.jobs_failed", Denominator: "serve.jobs_submitted", Target: 0.01,
		}}, windows)
		rs := e.Evaluate()
		if rs[0].Fast.OK || rs[0].Burning {
			t.Fatalf("zero-denominator window must be silent, got %+v", rs[0])
		}
	})

	t.Run("latency threshold fractions", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		st := tsdb.New(tsdb.Options{Registry: reg})
		h := reg.Histogram("span.request_us")
		// 99 fast requests (~100µs bucket), 1 slow (~1s bucket): exactly
		// the 1% budget of a p99 objective — burn 1.0, not burning.
		for i := 0; i < 99; i++ {
			h.Observe(100)
		}
		h.Observe(1_000_000)
		st.Scrape()
		e := newEval(t, reg, st, []Objective{{
			Name: "request_latency_p99", Kind: Latency,
			Metric: "span.request_us", Quantile: 0.99, Threshold: 10_000,
		}}, windows)
		rs := e.Evaluate()
		if !rs[0].Fast.OK {
			t.Fatalf("latency window not ok: %+v", rs[0])
		}
		// 1% bad against the 1% budget: burn ≈ 1 (1−0.99 is not exactly
		// 0.01 in binary), and at-or-below threshold must not alert.
		if b := rs[0].Fast.Burn; b < 0.999 || b > 1.001 {
			t.Fatalf("burn = %v, want ~1 (1%% bad / 1%% budget)", b)
		}
		if rs[0].Burning {
			t.Fatal("exact-budget latency flagged burning")
		}
		// One more slow request tips it strictly over: 2/101 > 1%.
		h.Observe(1_000_000)
		st.Scrape()
		rs = e.Evaluate()
		if rs[0].Fast.Burn <= 1 || !rs[0].Burning {
			t.Fatalf("over-budget latency not burning: %+v", rs[0])
		}
	})

	t.Run("event_rate single stall burns", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		st := tsdb.New(tsdb.Options{Registry: reg})
		reg.Counter("serve.jobs_stalled_total").Inc()
		st.Scrape()
		e := newEval(t, reg, st, []Objective{{
			Name: "job_stalls", Kind: EventRate,
			Metric: "serve.jobs_stalled_total", Target: 0.0001,
		}}, windows)
		rs := e.Evaluate()
		if !rs[0].Burning {
			t.Fatalf("one stall against a near-zero budget must burn: %+v", rs[0])
		}
	})

	t.Run("saturation mean over capacity", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		st := tsdb.New(tsdb.Options{Registry: reg})
		reg.Gauge("serve.queue_depth").Set(8)
		st.Scrape()
		e := newEval(t, reg, st, []Objective{{
			Name: "queue_saturation", Kind: Saturation,
			Metric: "serve.queue_depth", Target: 0.5, Capacity: 16,
		}}, windows)
		// Mean 8 of capacity 16 = 0.5 utilization at target 0.5: burn
		// exactly 1, not burning.
		rs := e.Evaluate()
		if rs[0].Fast.Burn != 1 || rs[0].Burning {
			t.Fatalf("exact-target saturation = %+v, want burn 1 not burning", rs[0])
		}
		reg.Gauge("serve.queue_depth").Set(16)
		st.Scrape()
		rs = e.Evaluate()
		if rs[0].Fast.Burn <= 1 || !rs[0].Burning {
			t.Fatalf("full queue not burning: %+v", rs[0])
		}
	})
}

func TestMultiWindowRequiresBothToBurn(t *testing.T) {
	// Fast window hot, slow window cold → no alert (blip suppression).
	// The tsdb store can't be given artificially old samples from the
	// public API, so approximate with a slow window that the single hot
	// sample can't satisfy: use an EventRate objective where the slow
	// window's much longer span dilutes the same delta below threshold.
	reg := telemetry.NewRegistry()
	st := tsdb.New(tsdb.Options{Registry: reg})
	reg.Counter("serve.jobs_stalled_total").Add(2)
	st.Scrape()
	// Fast 1s: 2 events/s / target 1 = 2 → burning. Slow 1h: 2/3600 /
	// 1 ≈ 0.0006 → not burning. Verdict must be calm.
	e := newEval(t, reg, st, []Objective{{
		Name: "job_stalls", Kind: EventRate,
		Metric: "serve.jobs_stalled_total", Target: 1,
	}}, Windows{Fast: time.Second, Slow: time.Hour})
	rs := e.Evaluate()
	if !rs[0].Fast.OK || rs[0].Fast.Burn <= 1 {
		t.Fatalf("fast window should burn: %+v", rs[0])
	}
	if rs[0].Slow.Burn > 1 {
		t.Fatalf("slow window should be calm: %+v", rs[0])
	}
	if rs[0].Burning {
		t.Fatal("alert fired with only one window burning")
	}
}

func TestGaugesPublished(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := tsdb.New(tsdb.Options{Registry: reg})
	reg.Counter("serve.jobs_submitted").Add(10)
	reg.Counter("serve.jobs_failed").Add(10)
	st.Scrape()
	e := newEval(t, reg, st, []Objective{{
		Name: "job_error_rate", Kind: ErrorRate,
		Metric: "serve.jobs_failed", Denominator: "serve.jobs_submitted", Target: 0.01,
	}}, Windows{Fast: time.Minute, Slow: time.Hour})
	e.Evaluate()

	fast := telemetry.LabelName(promexp.SLOBurnRateFamily,
		"objective", "job_error_rate", "window", "fast")
	if v := reg.Gauge(fast).Value(); v != 100 {
		t.Fatalf("%s = %v, want 100", fast, v)
	}
	burning := telemetry.LabelName(promexp.SLOBurningFamily, "objective", "job_error_rate")
	if v := reg.Gauge(burning).Value(); v != 1 {
		t.Fatalf("%s = %v, want 1", burning, v)
	}
	if v := reg.Counter("slo.evaluations").Value(); v != 1 {
		t.Fatalf("slo.evaluations = %d, want 1", v)
	}
	if !e.Burning() {
		t.Fatal("Burning = false, want true")
	}

	// The gauges survive the promexp exposition lint — the vocabulary
	// holds end to end.
	rec := httptest.NewRecorder()
	promexp.Handler(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := promexp.Lint(strings.NewReader(rec.Body.String())); err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
	if !strings.Contains(rec.Body.String(), `slo_burn_rate{objective="job_error_rate",window="fast"}`) {
		t.Fatal("burn gauge missing from the exposition")
	}
}

func TestBindEvaluatesOnScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := tsdb.New(tsdb.Options{Registry: reg})
	e := newEval(t, reg, st, []Objective{{
		Name: "job_stalls", Kind: EventRate,
		Metric: "serve.jobs_stalled_total", Target: 1,
	}}, Windows{Fast: time.Minute, Slow: time.Hour})
	e.Bind()
	st.Scrape()
	if v := reg.Counter("slo.evaluations").Value(); v != 1 {
		t.Fatalf("slo.evaluations after scrape = %d, want 1 (Bind not firing)", v)
	}
}

func TestHandler(t *testing.T) {
	// Nil evaluator: 404.
	var nilE *Evaluator
	rec := httptest.NewRecorder()
	nilE.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/slo", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("nil evaluator served %d, want 404", rec.Code)
	}
	if nilE.Evaluate() != nil || nilE.Burning() {
		t.Fatal("nil evaluator accumulated state")
	}
	nilE.Bind() // must not panic

	reg := telemetry.NewRegistry()
	st := tsdb.New(tsdb.Options{Registry: reg})
	reg.Counter("serve.jobs_submitted").Add(100)
	reg.Counter("serve.jobs_failed").Add(3)
	st.Scrape()
	e := newEval(t, reg, st, []Objective{{
		Name: "job_error_rate", Kind: ErrorRate,
		Metric: "serve.jobs_failed", Denominator: "serve.jobs_submitted", Target: 0.01,
	}}, Windows{Fast: time.Minute, Slow: time.Hour})

	rec = httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/slo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp struct {
		At            string  `json:"at"`
		BurnThreshold float64 `json:"burn_threshold"`
		Burning       bool    `json:"burning"`
		Objectives    []struct {
			Objective string `json:"objective"`
			Burning   bool   `json:"burning"`
			Fast      struct {
				Burn float64 `json:"burn"`
				OK   bool    `json:"ok"`
			} `json:"fast"`
		} `json:"objectives"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Objectives) != 1 || resp.Objectives[0].Objective != "job_error_rate" {
		t.Fatalf("objectives = %+v", resp.Objectives)
	}
	if resp.Objectives[0].Fast.Burn != 3 || !resp.Burning || !resp.Objectives[0].Burning {
		t.Fatalf("3%% errors at 1%% target: %+v", resp)
	}
	if resp.At == "" || resp.BurnThreshold != 1 {
		t.Fatalf("envelope = %+v", resp)
	}
}
