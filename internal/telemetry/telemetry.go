// Package telemetry is the simulator's zero-dependency observability
// substrate: a counter/gauge/histogram registry the simulator, cache,
// branch and power packages register into; a ring-buffered cycle-level
// event tracer (off by default, free when disabled) recording
// fetch/issue/retire/stall events and per-unit clock-gate activity,
// exportable as JSONL and Chrome trace_event format; and run manifests
// (config hash, parameters, seed, wall time, Go version) that make
// every simulation output reproducible.
//
// The package mirrors the paper's methodology (§3): "we monitor the
// usage of each microarchitectural unit of the processor every cycle".
// Everything here is stdlib-only so any layer of the repository can
// depend on it without cycles.
package telemetry

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value
// is ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down. The zero value is
// ready to use; all methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the bucket count of the power-of-two histogram: one
// bucket per possible bit length of a uint64, plus one for zero.
const histBuckets = 65

// Histogram counts observations in power-of-two buckets: bucket i
// holds values v with bits.Len64(v) == i, i.e. bucket 0 is exactly 0,
// bucket i (i ≥ 1) covers [2^(i−1), 2^i). The zero value is ready to
// use; all methods are safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n occurrences of value v in one step — the bulk
// path for ingesting pre-aggregated data such as issue-width
// histograms.
func (h *Histogram) ObserveN(v, n uint64) {
	if n == 0 {
		return
	}
	h.mu.Lock()
	h.buckets[bits.Len64(v)] += n
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * n
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the average observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// values from the power-of-two buckets. The estimate is the containing
// bucket's inclusive upper bound, clamped to the observed [min, max]
// range, so a single-sample histogram reports that sample exactly and
// no estimate ever leaves the observed range. Out-of-range q is
// clamped (so ±Inf behave as 0 and 1); a NaN q or an empty histogram
// returns NaN.
func (h *Histogram) Quantile(q float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return math.NaN()
	}
	// The smallest 1-based rank whose cumulative count covers q.
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum < rank {
			continue
		}
		var est float64
		switch {
		case i == 0:
			est = 0
		case i == histBuckets-1:
			est = float64(math.MaxUint64)
		default:
			est = float64(uint64(1)<<i - 1)
		}
		if est < float64(h.min) {
			est = float64(h.min)
		}
		if est > float64(h.max) {
			est = float64(h.max)
		}
		return est
	}
	return float64(h.max)
}

// Percentile is Quantile(p/100).
func (h *Histogram) Percentile(p float64) float64 { return h.Quantile(p / 100) }

// snapshot returns the histogram state under the lock.
func (h *Histogram) snapshot() (buckets map[string]uint64, count, sum, min, max uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	buckets = make(map[string]uint64)
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		// Key each bucket by its inclusive upper bound.
		if i == 0 {
			buckets["0"] = n
		} else {
			buckets[fmt.Sprint(uint64(1)<<i-1)] = n
		}
	}
	return buckets, h.count, h.sum, h.min, h.max
}

// Registry holds named metrics. Metrics are created on first use and
// live for the registry's lifetime; all methods are safe for
// concurrent use. The zero value is not usable — construct with
// NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Metric is one registry entry in exportable form.
type Metric struct {
	Type    string            `json:"type"` // "counter", "gauge" or "histogram"
	Name    string            `json:"name"`
	Value   float64           `json:"value,omitempty"` // counter/gauge value, histogram mean
	Count   uint64            `json:"count,omitempty"`
	Sum     uint64            `json:"sum,omitempty"`
	Min     uint64            `json:"min,omitempty"`
	Max     uint64            `json:"max,omitempty"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// Snapshot returns every metric, sorted by type then name.
func (r *Registry) Snapshot() []Metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Type: "counter", Name: name, Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Type: "gauge", Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		buckets, count, sum, min, max := h.snapshot()
		out = append(out, Metric{
			Type: "histogram", Name: name, Value: h.Mean(),
			Count: count, Sum: sum, Min: min, Max: max, Buckets: buckets,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteJSONL writes the registry as JSON Lines: the manifest first
// (when non-nil, tagged "manifest"), then one metric per line.
func (r *Registry) WriteJSONL(w io.Writer, m *Manifest) error {
	if r == nil {
		return errors.New("telemetry: nil registry")
	}
	return WriteJSONL(w, m, r.Snapshot())
}
