package promexp

import (
	"fmt"
	"regexp"
	"strings"
)

// This file is the single source of truth for the metric-name and
// label-name rules. Both enforcement layers consume it:
//
//   - the runtime linter (Lint, over a scraped exposition) builds its
//     line grammar from these patterns;
//   - the static metriclabel analyzer (internal/analysis/metriclabel)
//     applies the Valid* predicates to registration call sites at
//     go vet time, so a bad series fails the build instead of the CI
//     scrape.
//
// Changing a rule here changes both layers at once; there is no second
// copy to drift.
const (
	// MetricNamePattern is the Prometheus metric-name alphabet.
	MetricNamePattern = `[a-zA-Z_:][a-zA-Z0-9_:]*`
	// LabelNamePattern is the Prometheus label-name alphabet.
	LabelNamePattern = `[a-zA-Z_][a-zA-Z0-9_]*`
)

var (
	metricNameRe = regexp.MustCompile(`^` + MetricNamePattern + `$`)
	labelNameRe  = regexp.MustCompile(`^` + LabelNamePattern + `$`)
	// registrySegmentRe covers one dot-separated segment of a registry
	// name; segments sanitize to the metric-name alphabet 1:1.
	registrySegmentRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// reservedLabels are label names the exposition layer owns: le is the
// histogram bucket label promexp splices in itself, quantile belongs
// to summaries, and the __ prefix is reserved by Prometheus.
var reservedLabels = map[string]bool{"le": true, "quantile": true}

// ValidMetricName checks a Prometheus metric family name (the first
// argument of telemetry.LabelName): strictly the exposition alphabet,
// so the family reaches the scrape unchanged by sanitization.
func ValidMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	if !metricNameRe.MatchString(name) {
		return fmt.Errorf("metric name %q does not match %s", name, MetricNamePattern)
	}
	if strings.HasPrefix(name, "__") {
		return fmt.Errorf("metric name %q uses the reserved __ prefix", name)
	}
	return nil
}

// ValidLabelName checks one label key for the exposition alphabet and
// the reserved names.
func ValidLabelName(name string) error {
	if name == "" {
		return fmt.Errorf("empty label name")
	}
	if !labelNameRe.MatchString(name) {
		return fmt.Errorf("label name %q does not match %s", name, LabelNamePattern)
	}
	if strings.HasPrefix(name, "__") {
		return fmt.Errorf("label name %q uses the reserved __ prefix", name)
	}
	if reservedLabels[name] {
		return fmt.Errorf("label name %q is reserved by the exposition format", name)
	}
	return nil
}

// ValidRegistryName checks a full telemetry registry name: either a
// dotted name ("pipeline.stall_cycles.agen", sanitized to underscores
// on export) or a LabelName-rendered series ("fam{k=\"v\"}"), whose
// family and label keys are checked against the exposition rules.
func ValidRegistryName(name string) error {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			return fmt.Errorf("registry name %q has an unterminated label block", name)
		}
		if err := ValidMetricName(name[:i]); err != nil {
			return err
		}
		return validLabelBlock(name[i:])
	}
	for _, seg := range strings.Split(name, ".") {
		if seg == "" {
			return fmt.Errorf("registry name %q has an empty dotted segment", name)
		}
		if !registrySegmentRe.MatchString(seg) {
			return fmt.Errorf("registry name segment %q does not match %s", seg, MetricNamePattern)
		}
	}
	return nil
}

// ValidRegistryPrefix checks a registry-name fragment that later code
// extends ("resultcache." + name): every completed dot-separated
// segment must be in the sanitizable alphabet. The fragment must end
// at a segment boundary (a trailing dot) or extend a valid segment.
func ValidRegistryPrefix(prefix string) error {
	if prefix == "" {
		return fmt.Errorf("empty registry name")
	}
	segs := strings.Split(prefix, ".")
	for i, seg := range segs {
		if seg == "" {
			if i == len(segs)-1 {
				continue // trailing dot: the caller appends the rest
			}
			return fmt.Errorf("registry name %q has an empty dotted segment", prefix)
		}
		if !registrySegmentRe.MatchString(seg) {
			return fmt.Errorf("registry name segment %q does not match %s", seg, MetricNamePattern)
		}
	}
	return nil
}

// validLabelBlock checks a rendered label block {k="v",...} as
// produced by telemetry.LabelName.
func validLabelBlock(block string) error {
	if !labelBlockRe.MatchString(block) {
		return fmt.Errorf("malformed label block %q", block)
	}
	for _, m := range labelPairRe.FindAllStringSubmatch(block, -1) {
		if err := ValidLabelName(m[1]); err != nil {
			return err
		}
	}
	return nil
}

var labelPairRe = regexp.MustCompile(`(` + LabelNamePattern + `)="`)

// SpanNames is the canonical vocabulary of cost-attribution span names
// (internal/telemetry/span). Spans outside this table are a lint error:
// the span histograms ("span.<name>_us"), the trace viewers and the
// benchmark's per-layer attribution all key on these names, so an
// ad-hoc name would fork the timing taxonomy. Extend the table when a
// new phase is instrumented.
var SpanNames = map[string]bool{
	"study":    true, // one RunCatalog invocation
	"workload": true, // one workload's depth sweep
	"point":    true, // one design point (depth × workload)
	"cache":    true, // resultcache lookup or store
	"decode":   true, // workload generator construction (per-cycle engine path)
	"pack":     true, // trace pre-decode into packed form, once per sweep
	"warmup":   true, // cache/predictor priming
	"simulate": true, // the cycle-accurate pipeline run
	"power":    true, // power-model evaluation (both disciplines)
	"fit":      true, // cubic least-squares optimum extraction
	"request":  true, // one depthd HTTP request (internal/serve)
	"job":      true, // one depthd study job, queue-to-terminal
}

// spanNameRe is the span-name alphabet: lower-case snake case, so
// "span." + name + "_us" sanitizes to a valid metric name 1:1.
var spanNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// ValidSpanName checks a span name against the alphabet and the
// canonical vocabulary.
func ValidSpanName(name string) error {
	if name == "" {
		return fmt.Errorf("empty span name")
	}
	if !spanNameRe.MatchString(name) {
		return fmt.Errorf("span name %q does not match %s", name, spanNameRe)
	}
	if !SpanNames[name] {
		return fmt.Errorf("span name %q is not in the promexp.SpanNames vocabulary", name)
	}
	return nil
}

// BudgetBuckets is the canonical vocabulary of cycle-budget bucket
// names (pipeline.CycleBucket.String). They key the pipeline.budget.*
// counters and the pipeline_cycle_budget_fraction{bucket} series; the
// pipeline package's tests assert the enum and this table stay in
// lockstep.
var BudgetBuckets = map[string]bool{
	"useful_issue":      true,
	"icache_miss":       true,
	"frontend_fill":     true,
	"mispredict_refill": true,
	"dcache_miss":       true,
	"dependency":        true,
	"agen_window":       true,
	"fp_structural":     true,
	"drain":             true,
}

// ValidBudgetBucket checks a cycle-budget bucket name against the
// alphabet and the canonical vocabulary.
func ValidBudgetBucket(name string) error {
	if name == "" {
		return fmt.Errorf("empty budget bucket name")
	}
	if !spanNameRe.MatchString(name) {
		return fmt.Errorf("budget bucket %q does not match %s", name, spanNameRe)
	}
	if !BudgetBuckets[name] {
		return fmt.Errorf("budget bucket %q is not in the promexp.BudgetBuckets vocabulary", name)
	}
	return nil
}

// ServeMetrics is the canonical vocabulary of the depthd study
// server's serve.* registry names (internal/serve). The e2e harness,
// the CI smoke scrape and the dashboards key on them; a serve-side
// metric outside this table is a lint error, same as an ad-hoc span
// name.
var ServeMetrics = map[string]bool{
	"serve.http_requests":      true, // counter: requests accepted by the mux
	"serve.http_errors":        true, // counter: responses with status >= 400
	"serve.jobs_submitted":     true, // counter: studies admitted to the queue
	"serve.jobs_rejected":      true, // counter: 400/429/503 submissions
	"serve.jobs_completed":     true, // counter: jobs reaching done
	"serve.jobs_failed":        true, // counter: jobs reaching failed
	"serve.jobs_canceled":      true, // counter: jobs reaching canceled
	"serve.jobs_running":       true, // gauge: jobs currently executing
	"serve.queue_depth":        true, // gauge: jobs waiting in the queue
	"serve.jobs_stalled_total": true, // counter: running jobs flagged by the watchdog
}

// ValidServeMetric checks a serve.* registry name against the
// canonical vocabulary (names without the serve. prefix are not this
// predicate's concern).
func ValidServeMetric(name string) error {
	if err := ValidRegistryName(name); err != nil {
		return err
	}
	if !ServeMetrics[name] {
		return fmt.Errorf("serve metric %q is not in the promexp.ServeMetrics vocabulary", name)
	}
	return nil
}

// LedgerMetrics is the canonical vocabulary of the request/job ledger's
// ledger.* registry names (internal/ledger).
var LedgerMetrics = map[string]bool{
	"ledger.events_written": true, // counter: events durably appended
	"ledger.events_dropped": true, // counter: events shed by the bounded writer
}

// ValidLedgerMetric checks a ledger.* registry name against the
// canonical vocabulary.
func ValidLedgerMetric(name string) error {
	if err := ValidRegistryName(name); err != nil {
		return err
	}
	if !LedgerMetrics[name] {
		return fmt.Errorf("ledger metric %q is not in the promexp.LedgerMetrics vocabulary", name)
	}
	return nil
}
