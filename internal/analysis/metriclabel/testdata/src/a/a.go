// Package a is metriclabel golden testdata: telemetry registrations
// that conform to and violate the shared exposition naming rules.
package a

import (
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

func register(reg *telemetry.Registry, dynamic string) {
	// Conforming dotted registry names.
	reg.Counter("pipeline.instructions").Inc()
	reg.Gauge("sweep.points_total").Set(1)
	reg.Histogram("sweep.point_us").Observe(1)

	// Conforming constant-prefix concatenation.
	reg.Counter("resultcache." + dynamic).Inc()

	// Fully dynamic names cannot be checked statically.
	reg.Counter(dynamic).Inc()

	// Violations.
	reg.Counter("bad name").Inc()        // want `metric registration: registry name segment "bad name" does not match`
	reg.Gauge("power..total").Set(0)     // want `metric registration: registry name "power..total" has an empty dotted segment`
	reg.Counter("9starts.bad").Inc()     // want `metric registration: registry name segment "9starts" does not match`
	reg.Counter("bad-prefix." + dynamic) // want `metric registration: registry name segment "bad-prefix" does not match`

	// LabelName sites: family must be strict exposition alphabet.
	reg.Gauge(telemetry.LabelName("power_total_watts", "mode", "gated")).Set(0)
	reg.Gauge(telemetry.LabelName("power-total", "mode", "gated")).Set(0) // want `LabelName family: metric name "power-total" does not match`
	reg.Gauge(telemetry.LabelName("f", "le", "0.5")).Set(0)               // want `LabelName key: label name "le" is reserved by the exposition format`
	reg.Gauge(telemetry.LabelName("f", "__internal", "x")).Set(0)         // want `LabelName key: label name "__internal" uses the reserved __ prefix`
	reg.Gauge(telemetry.LabelName("f", "unit", "fetch", "depth")).Set(0)  // want `LabelName called with an odd number of label arguments`

	// Dynamic keys are skipped; spread kv is skipped.
	kv := []string{"unit", "fetch"}
	reg.Gauge(telemetry.LabelName("f", kv...)).Set(0)
	reg.Gauge(telemetry.LabelName("f", dynamic, "x")).Set(0)

	// Cycle-budget registrations must use the canonical bucket names.
	reg.Counter("pipeline.budget.useful_issue").Inc()
	reg.Counter("pipeline.budget." + dynamic).Inc()
	reg.Counter("pipeline.budget.useful_cycles").Inc() // want `metric registration: budget bucket "useful_cycles" is not in the promexp.BudgetBuckets vocabulary`

	// A constant bucket label value is checked against the same table.
	reg.Gauge(telemetry.LabelName("pipeline_cycle_budget_fraction", "bucket", "drain")).Set(0)
	reg.Gauge(telemetry.LabelName("pipeline_cycle_budget_fraction", "bucket", dynamic)).Set(0)
	reg.Gauge(telemetry.LabelName("pipeline_cycle_budget_fraction", "bucket", "stalls")).Set(0) // want `LabelName value: budget bucket "stalls" is not in the promexp.BudgetBuckets vocabulary`
}

func trace(tr *span.Tracer, dynamic string) {
	// Span names come from the shared vocabulary.
	root := tr.Start("study", span.Int("workloads", 2))
	wl := root.Child("workload", span.String("workload", "w"))
	wl.Child("simulate").End()

	// Dynamic names cannot be checked statically.
	tr.Start(dynamic).End()

	// Violations: off-vocabulary and off-alphabet names.
	root.Child("fitting").End()  // want `span name: span name "fitting" is not in the promexp.SpanNames vocabulary`
	tr.Start("Power Eval").End() // want `span name: span name "Power Eval" does not match`
	wl.Child("sim-phase").End()  // want `span name: span name "sim-phase" does not match`
	wl.End()
	root.End()
}

func serveMetrics(reg *telemetry.Registry, tr *span.Tracer, dynamic string) {
	// serve.* registrations must use the canonical server vocabulary.
	reg.Counter("serve.jobs_submitted").Inc()
	reg.Gauge("serve.queue_depth").Set(0)
	reg.Counter("serve." + dynamic).Inc()
	reg.Counter("serve.job_count").Inc() // want `metric registration: serve metric "serve.job_count" is not in the promexp.ServeMetrics vocabulary`
	reg.Gauge("serve.queue_len").Set(0)  // want `metric registration: serve metric "serve.queue_len" is not in the promexp.ServeMetrics vocabulary`

	// The server's request/job spans are vocabulary names.
	req := tr.Start("request", span.String("method", "GET"))
	req.Child("job").End()
	req.End()
	tr.Start("handler").End() // want `span name: span name "handler" is not in the promexp.SpanNames vocabulary`
}

func observabilityMetrics(reg *telemetry.Registry, dynamic string) {
	// The ledger keeps its meta-metric vocabulary closed the same way
	// serve.* does.
	reg.Counter("ledger.events_written").Inc()
	reg.Counter("ledger.events_dropped").Inc()
	reg.Counter("ledger." + dynamic).Inc()

	reg.Counter("ledger.events_lost").Inc() // want `metric registration: ledger metric "ledger.events_lost" is not in the promexp.LedgerMetrics vocabulary`

	// The watchdog's stall counter is part of the serve vocabulary.
	reg.Counter("serve.jobs_stalled_total").Inc()
}
