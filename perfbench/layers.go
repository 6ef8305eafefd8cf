package main

import (
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

// clock maps wall-clock instants onto a span tracer's monotonic
// nanosecond axis, so the benchmark's measured windows and timers (fit)
// and the program's spans share one timeline.
type clock struct{ epoch time.Time }

// newTracedClock builds a tracer and a clock aligned to its epoch (the
// midpoint of the construction call, within microseconds of it).
func newTracedClock(reg *telemetry.Registry, capacity int) (*span.Tracer, clock) {
	before := time.Now()
	tr := span.NewTracer(reg, capacity)
	after := time.Now()
	return tr, clock{epoch: before.Add(after.Sub(before) / 2)}
}

func (c clock) at(t time.Time) int64 { return t.Sub(c.epoch).Nanoseconds() }

func (c clock) interval(from, to time.Time) interval {
	return interval{Start: c.at(from), End: c.at(to)}
}

// layerKey names the layer a span record belongs to; the result cache
// span is split by operation.
func layerKey(r span.Record) string {
	if r.Name == "cache" {
		if op, ok := r.Attr("op"); ok {
			return "cache_" + op
		}
	}
	return r.Name
}

// spanLayers aggregates a pass's span records per layer: total span
// time, count, raw durations (for exact percentiles) and self time
// (duration minus the time covered by direct children — meaningful in
// a serial pass, where siblings never overlap).
type spanLayers struct {
	totalS  map[string]float64
	selfS   map[string]float64
	count   map[string]int
	durUS   map[string][]float64
	instr   float64    // simulated instructions, from simulate-span attributes
	covered []interval // every span but the catalog study roots
	dropped uint64
}

func analyzeSpans(tr *span.Tracer) spanLayers {
	recs := tr.Records()
	l := spanLayers{
		totalS: map[string]float64{}, selfS: map[string]float64{},
		count: map[string]int{}, durUS: map[string][]float64{},
		dropped: tr.Dropped(),
	}
	childNS := make(map[uint64]int64, len(recs))
	for _, r := range recs {
		if r.Parent != 0 {
			childNS[r.Parent] += r.DurNS
		}
	}
	for _, r := range recs {
		k := layerKey(r)
		l.totalS[k] += float64(r.DurNS) / 1e9
		l.selfS[k] += float64(r.DurNS-childNS[r.ID]) / 1e9
		l.count[k]++
		l.durUS[k] = append(l.durUS[k], float64(r.DurNS)/1e3)
		if r.Name == "simulate" {
			if v, ok := r.Attr("instructions"); ok {
				n, _ := strconv.Atoi(v)
				l.instr += float64(n)
			}
		}
		// A study root's self time is RunCatalog's own orchestration
		// (goroutine fan-out, semaphore waits, result assembly); it is
		// left unattributed rather than credited to a named layer.
		if r.Parent != 0 || r.Name != "study" {
			l.covered = append(l.covered, interval{Start: r.StartNS, End: r.StartNS + r.DurNS})
		}
	}
	return l
}

// flatten renders the per-layer figures a pass reports.
func (l spanLayers) flatten(out map[string]float64) {
	for _, k := range []string{"simulate", "warmup", "pack", "power", "decode", "cache_get", "cache_put"} {
		out[k+"_s"] = l.totalS[k]
		out[k+"_n"] = float64(l.count[k])
	}
	out["simulate_p50_us"] = quantile(l.durUS["simulate"], 0.50)
	out["simulate_p95_us"] = quantile(l.durUS["simulate"], 0.95)
	out["warmup_p95_us"] = quantile(l.durUS["warmup"], 0.95)
	out["cache_get_p95_us"] = quantile(l.durUS["cache_get"], 0.95)
	out["cache_put_p95_us"] = quantile(l.durUS["cache_put"], 0.95)
	out["point_self_s"] = l.selfS["point"]
	out["workload_self_s"] = l.selfS["workload"]
	out["study_self_s"] = l.selfS["study"]
	out["study_n"] = float64(l.count["study"])
	out["job_self_s"] = l.selfS["job"]
	out["request_s"] = l.totalS["request"]
	out["simulated_instr"] = l.instr
	out["spans_dropped"] = float64(l.dropped)
}
