// Package invariant is the simulator's runtime conformance substrate:
// an executable statement of the laws every run must obey —
// conservation (instructions fetched = completed + squashed), capacity
// (per-cycle unit occupancy bounded by the machine width), sanity
// (stall fractions in [0, 1], watts non-negative, gated power never
// above ungated) and shape (frequency monotone in depth, τ(p) convex).
//
// The engine follows the tolerance-envelope formalization of the
// statistical pipeline-delay literature: a law is a named Rule, a
// breach is a Violation carrying cycle/unit context, and a Recorder
// collects breaches and counts them into the
// conformance_violations_total telemetry series.
//
// Cost discipline: checks run only when a *Recorder is attached.
// Every instrumented hot-path site guards itself with one nil/bool
// branch, so a disabled engine adds a single predictable branch per
// site and no allocation. The repository benchmark's catalog-observed
// workload (perfbench/) measures the attached cost end to end.
//
// The package depends only on telemetry (and stdlib), so any layer —
// pipeline, power, core, difftest — can attach a Recorder without
// import cycles.
package invariant

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/telemetry"
)

// DefaultMaxViolations bounds how many violations a Recorder retains
// verbatim; later breaches are still counted (a broken invariant in a
// million-cycle run would otherwise flood memory with identical
// evidence).
const DefaultMaxViolations = 64

// Violation is one observed breach of a named rule, with enough
// context to localize it: the simulated cycle and unit when the rule
// is a per-cycle law, zero values otherwise.
type Violation struct {
	Rule   string `json:"rule"`            // stable rule identifier, e.g. "conservation/fetch_retire"
	Detail string `json:"detail"`          // human-readable evidence
	Cycle  uint64 `json:"cycle,omitempty"` // simulated cycle (per-cycle rules)
	Unit   string `json:"unit,omitempty"`  // unit name (per-unit rules)
}

func (v Violation) String() string {
	var b strings.Builder
	b.WriteString(v.Rule)
	if v.Unit != "" {
		fmt.Fprintf(&b, " unit=%s", v.Unit)
	}
	if v.Cycle != 0 {
		fmt.Fprintf(&b, " cycle=%d", v.Cycle)
	}
	b.WriteString(": ")
	b.WriteString(v.Detail)
	return b.String()
}

// Recorder collects violations. A nil *Recorder means the invariant
// engine is disabled: every check site must guard with a nil test and
// emit nothing. All methods are safe for concurrent use (sweeps check
// many runs in parallel into one Recorder).
type Recorder struct {
	mu      sync.Mutex
	vs      []Violation
	total   uint64
	byRule  map[string]uint64
	max     int
	metrics *telemetry.Registry
}

// New returns a Recorder retaining up to DefaultMaxViolations
// violations. reg may be nil; when set, every recorded violation
// increments conformance_violations_total{rule=...} in it.
func New(reg *telemetry.Registry) *Recorder {
	return &Recorder{
		byRule:  make(map[string]uint64),
		max:     DefaultMaxViolations,
		metrics: reg,
	}
}

// Record registers one violation.
func (r *Recorder) Record(v Violation) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.total++
	r.byRule[v.Rule]++
	if len(r.vs) < r.max {
		r.vs = append(r.vs, v)
	}
	r.mu.Unlock()
	if r.metrics != nil {
		r.metrics.Counter(telemetry.LabelName("conformance_violations_total", "rule", v.Rule)).Inc()
	}
}

// Violatef records a violation with a formatted detail string.
func (r *Recorder) Violatef(rule, format string, args ...any) {
	if r == nil {
		return
	}
	r.Record(Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// Count returns the total number of violations recorded, including
// those beyond the retention cap.
func (r *Recorder) Count() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// OK reports whether no violation has been recorded.
func (r *Recorder) OK() bool { return r.Count() == 0 }

// Violations returns the retained violations in recording order.
func (r *Recorder) Violations() []Violation {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Violation(nil), r.vs...)
}

// ByRule returns the per-rule violation counts, sorted by rule name.
type RuleCount struct {
	Rule  string `json:"rule"`
	Count uint64 `json:"count"`
}

// Summary returns per-rule counts sorted by rule name.
func (r *Recorder) Summary() []RuleCount {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RuleCount, 0, len(r.byRule))
	for rule, n := range r.byRule {
		out = append(out, RuleCount{Rule: rule, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}
