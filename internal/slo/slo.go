// Package slo is the service-level-objective burn-rate engine for
// depthd: declarative objectives (request latency p99 under a bound,
// job error rate, queue saturation, job stalls) evaluated over windows
// of the metrics history store (internal/telemetry/tsdb) with
// multi-window burn-rate alerting in the SRE-workbook style — an
// objective is "burning" only when its error budget burns faster than
// allowed in BOTH a fast window (catches sharp regressions quickly)
// and a slow window (suppresses blips), so alerts are both fast and
// precise.
//
// Burn rate is the ratio of the observed badness to the budgeted
// badness: burn 1.0 consumes the budget exactly at the sustainable
// pace, burn 10 exhausts it 10× too fast. The engine publishes every
// evaluation as slo_burn_rate{objective,window} and
// slo_burning{objective} gauges in the same registry it judges, so the
// alerts are themselves scrapeable history, and serves the full
// verdict as JSON at /v1/slo.
//
// Everything is stdlib-only and nil-safe in the repo's style: a nil
// *Evaluator evaluates to nothing and serves 404s.
package slo

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/promexp"
	"repro/internal/telemetry/tsdb"
)

// Kind selects the burn computation of an objective.
type Kind string

const (
	// Latency burns by the fraction of a histogram window's
	// observations over Threshold, against the 1−Quantile budget:
	// "99% of requests under 500ms" burns at BadFraction/0.01.
	Latency Kind = "latency"
	// ErrorRate burns by a window's numerator-over-denominator counter
	// delta ratio against Target: failed jobs over submitted jobs.
	ErrorRate Kind = "error_rate"
	// EventRate burns by a counter's per-second increase over the
	// window against Target events/sec: stalls are budgeted near zero.
	EventRate Kind = "event_rate"
	// Saturation burns by a gauge's window mean over Capacity against
	// Target: sustained queue depth near capacity burns.
	Saturation Kind = "saturation"
)

// Objective is one declarative service-level objective.
type Objective struct {
	// Name must be in the promexp.SLOObjectives vocabulary — it is the
	// "objective" label of the burn gauges and the /v1/slo JSON key.
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Metric is the judged series: a histogram for Latency, a counter
	// for ErrorRate/EventRate, a gauge for Saturation.
	Metric string `json:"metric"`
	// Denominator is ErrorRate's base counter series.
	Denominator string `json:"denominator,omitempty"`
	// Quantile is Latency's objective quantile (e.g. 0.99); the error
	// budget is 1−Quantile.
	Quantile float64 `json:"quantile,omitempty"`
	// Threshold is Latency's bound in the histogram's unit.
	Threshold float64 `json:"threshold,omitempty"`
	// Target is the budgeted badness: allowed bad-event fraction
	// (ErrorRate), events/sec (EventRate) or mean utilization fraction
	// (Saturation).
	Target float64 `json:"target,omitempty"`
	// Capacity is Saturation's denominator (e.g. the queue capacity).
	Capacity float64 `json:"capacity,omitempty"`
}

// Validate checks the objective against the shared vocabulary and its
// kind's required parameters.
func (o Objective) Validate() error {
	if err := promexp.ValidSLOObjective(o.Name); err != nil {
		return err
	}
	if o.Metric == "" {
		return fmt.Errorf("objective %s: empty metric", o.Name)
	}
	switch o.Kind {
	case Latency:
		if o.Quantile <= 0 || o.Quantile >= 1 {
			return fmt.Errorf("objective %s: latency quantile %v outside (0, 1)", o.Name, o.Quantile)
		}
		if o.Threshold <= 0 {
			return fmt.Errorf("objective %s: latency threshold %v must be positive", o.Name, o.Threshold)
		}
	case ErrorRate:
		if o.Denominator == "" {
			return fmt.Errorf("objective %s: error_rate needs a denominator series", o.Name)
		}
		if o.Target <= 0 {
			return fmt.Errorf("objective %s: target %v must be positive", o.Name, o.Target)
		}
	case EventRate, Saturation:
		if o.Target <= 0 {
			return fmt.Errorf("objective %s: target %v must be positive", o.Name, o.Target)
		}
		if o.Kind == Saturation && o.Capacity <= 0 {
			return fmt.Errorf("objective %s: saturation capacity %v must be positive", o.Name, o.Capacity)
		}
	default:
		return fmt.Errorf("objective %s: unknown kind %q", o.Name, o.Kind)
	}
	return nil
}

// Windows are the two alerting windows. Production defaults are
// 5m/1h; tests scale them down — the logic only requires Fast < Slow.
type Windows struct {
	Fast time.Duration
	Slow time.Duration
}

// DefaultWindows is the production fast/slow pair.
var DefaultWindows = Windows{Fast: 5 * time.Minute, Slow: time.Hour}

// DefaultBurnThreshold is the burn rate above which (strictly) a
// window is considered burning. 1.0 alerts on any faster-than-budget
// burn once both windows agree; raise it to tolerate brief overspend.
const DefaultBurnThreshold = 1.0

// WindowResult is one window's burn evaluation.
type WindowResult struct {
	Window string  `json:"window"` // "fast" or "slow"
	Sec    float64 `json:"sec"`
	// Burn is the burn rate; 0 with OK=false when the window holds no
	// data (no alert from silence).
	Burn float64 `json:"burn"`
	OK   bool    `json:"ok"`
}

// Result is one objective's verdict.
type Result struct {
	Objective string         `json:"objective"`
	Kind      Kind           `json:"kind"`
	Fast      WindowResult   `json:"fast"`
	Slow      WindowResult   `json:"slow"`
	Burning   bool           `json:"burning"`
	Detail    map[string]any `json:"detail,omitempty"`
}

// Evaluator evaluates a fixed set of objectives over a tsdb store.
// Construct with New; nil is the disabled state. The cached evaluation
// below the mutex is guarded by mu; the configuration above it is set
// in New and immutable afterwards.
type Evaluator struct {
	store      *tsdb.Store
	reg        *telemetry.Registry
	objectives []Objective
	windows    Windows
	threshold  float64

	mu   sync.Mutex
	last []Result
	at   time.Time
}

// Options configures an Evaluator.
type Options struct {
	// Store is the history store windows are read from. Required.
	Store *tsdb.Store
	// Registry receives the burn gauges and the slo.evaluations
	// counter. Required (normally the same registry the store scrapes,
	// closing the loop: alerts become history too).
	Registry *telemetry.Registry
	// Objectives to evaluate; each must Validate.
	Objectives []Objective
	// Windows defaults to DefaultWindows on zero values.
	Windows Windows
	// BurnThreshold defaults to DefaultBurnThreshold when 0.
	BurnThreshold float64
}

// New builds an evaluator. It returns an error when any objective
// fails vocabulary or parameter validation — a bad objective is a
// deploy-time mistake, not a runtime condition.
func New(opts Options) (*Evaluator, error) {
	if opts.Store == nil || opts.Registry == nil {
		return nil, fmt.Errorf("slo: Store and Registry are required")
	}
	for _, o := range opts.Objectives {
		if err := o.Validate(); err != nil {
			return nil, fmt.Errorf("slo: %w", err)
		}
	}
	w := opts.Windows
	if w.Fast <= 0 {
		w.Fast = DefaultWindows.Fast
	}
	if w.Slow <= 0 {
		w.Slow = DefaultWindows.Slow
	}
	if w.Fast >= w.Slow {
		return nil, fmt.Errorf("slo: fast window %v must be shorter than slow window %v", w.Fast, w.Slow)
	}
	thr := opts.BurnThreshold
	if thr == 0 {
		thr = DefaultBurnThreshold
	}
	return &Evaluator{
		store:      opts.Store,
		reg:        opts.Registry,
		objectives: append([]Objective(nil), opts.Objectives...),
		windows:    w,
		threshold:  thr,
	}, nil
}

// Bind subscribes the evaluator to the store's scrape tick, so burn
// gauges refresh exactly once per scrape.
func (e *Evaluator) Bind() {
	if e == nil {
		return
	}
	e.store.OnScrape(func(telemetry.Snap) { e.Evaluate() })
}

// Evaluate computes every objective's burn over both windows, updates
// the burn gauges, and returns the verdicts in objective order. Safe
// on nil (returns nil).
func (e *Evaluator) Evaluate() []Result {
	if e == nil {
		return nil
	}
	out := make([]Result, 0, len(e.objectives))
	for _, o := range e.objectives {
		r := Result{Objective: o.Name, Kind: o.Kind}
		r.Fast = e.window(o, "fast", e.windows.Fast)
		r.Slow = e.window(o, "slow", e.windows.Slow)
		r.Burning = r.Fast.OK && r.Slow.OK &&
			r.Fast.Burn > e.threshold && r.Slow.Burn > e.threshold
		r.Detail = e.detail(o)
		burning := 0.0
		if r.Burning {
			burning = 1
		}
		e.reg.Gauge(telemetry.LabelName(promexp.SLOBurningFamily, "objective", o.Name)).Set(burning)
		out = append(out, r)
	}
	e.reg.Counter("slo.evaluations").Inc()
	e.mu.Lock()
	e.last = out
	e.at = time.Now()
	e.mu.Unlock()
	return out
}

// window evaluates one objective over one window and publishes its
// burn gauge.
func (e *Evaluator) window(o Objective, label string, w time.Duration) WindowResult {
	wr := WindowResult{Window: label, Sec: w.Seconds()}
	wr.Burn, wr.OK = e.burn(o, w)
	e.reg.Gauge(telemetry.LabelName(promexp.SLOBurnRateFamily,
		"objective", o.Name, "window", label)).Set(wr.Burn)
	return wr
}

// burn computes one objective's burn rate over one window. ok is false
// when the window holds no usable data.
func (e *Evaluator) burn(o Objective, w time.Duration) (float64, bool) {
	switch o.Kind {
	case Latency:
		hw, ok := e.store.Window(o.Metric, w)
		if !ok {
			return 0, false
		}
		return hw.BadFraction(o.Threshold) / (1 - o.Quantile), true
	case ErrorRate:
		num, ok1 := e.store.Delta(o.Metric, w)
		den, ok2 := e.store.Delta(o.Denominator, w)
		if !ok1 || !ok2 || den <= 0 {
			return 0, false
		}
		return (num / den) / o.Target, true
	case EventRate:
		delta, ok := e.store.Delta(o.Metric, w)
		if !ok {
			return 0, false
		}
		return (delta / w.Seconds()) / o.Target, true
	case Saturation:
		avg, ok := e.store.AvgOverTime(o.Metric, w)
		if !ok {
			return 0, false
		}
		return (avg / o.Capacity) / o.Target, true
	}
	return 0, false
}

// detail annotates a verdict with the objective's human-relevant
// current numbers (best-effort; absent keys mean no data).
func (e *Evaluator) detail(o Objective) map[string]any {
	d := map[string]any{"metric": o.Metric}
	switch o.Kind {
	case Latency:
		d["threshold"] = o.Threshold
		d["quantile"] = o.Quantile
		if q, ok := e.store.QuantileOverTime(o.Metric, e.windows.Fast, o.Quantile); ok {
			d["observed_fast"] = q
		}
	case ErrorRate:
		d["target"] = o.Target
		if num, ok := e.store.Delta(o.Metric, e.windows.Fast); ok {
			d["bad_fast"] = num
		}
	case EventRate:
		d["target_per_sec"] = o.Target
		if delta, ok := e.store.Delta(o.Metric, e.windows.Fast); ok {
			d["events_fast"] = delta
		}
	case Saturation:
		d["target"] = o.Target
		d["capacity"] = o.Capacity
		if avg, ok := e.store.AvgOverTime(o.Metric, e.windows.Fast); ok {
			d["avg_fast"] = avg
		}
	}
	return d
}

// Last returns the most recent Evaluate verdicts and their time (zero
// before the first evaluation). Safe on nil.
func (e *Evaluator) Last() ([]Result, time.Time) {
	if e == nil {
		return nil, time.Time{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Result(nil), e.last...), e.at
}

// Burning reports whether any objective is currently burning per the
// last evaluation. Safe on nil.
func (e *Evaluator) Burning() bool {
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.last {
		if r.Burning {
			return true
		}
	}
	return false
}

// response is the /v1/slo JSON body.
type response struct {
	At      string `json:"at"`
	Windows struct {
		FastSec float64 `json:"fast_sec"`
		SlowSec float64 `json:"slow_sec"`
	} `json:"windows"`
	BurnThreshold float64  `json:"burn_threshold"`
	Burning       bool     `json:"burning"`
	Objectives    []Result `json:"objectives"`
}

// Handler serves the full verdict as JSON — mount at /v1/slo. Each
// request evaluates fresh (the underlying windows only move on
// scrapes, so this is cheap). A nil evaluator serves 404.
func (e *Evaluator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if e == nil {
			http.Error(w, `{"error":"slo engine disabled"}`, http.StatusNotFound)
			return
		}
		results := e.Evaluate()
		_, at := e.Last()
		var resp response
		resp.At = at.UTC().Format(time.RFC3339Nano)
		resp.Windows.FastSec = e.windows.Fast.Seconds()
		resp.Windows.SlowSec = e.windows.Slow.Seconds()
		resp.BurnThreshold = e.threshold
		resp.Objectives = results
		for _, res := range results {
			if res.Burning {
				resp.Burning = true
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
}
