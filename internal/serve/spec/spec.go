// Package spec defines the study specification shared by every entry
// point into the sweep engine: the depthd job server (cmd/depthd,
// internal/serve) accepts it as the POST /v1/studies request body, and
// the batch CLIs (cmd/sweep, cmd/experiments) build one from their
// flags. A spec names the study's four axes — workloads × depths ×
// power model × metric exponent — plus the trace length and machine
// preset. One validation path serves all entry points, so a spec
// rejected at the HTTP boundary is rejected identically, with the same
// message, at the command line.
//
// A Spec has two forms. The raw form is what users write: optional
// fields at their zero values, depths given either explicitly or as a
// [min, max] range. Normalize produces the canonical form — every
// field explicit, depths enumerated, pointer knobs filled with the
// study defaults — which is what the server queues, fingerprints and
// caches on. Validate accepts the raw form and reports the first
// problem in user terms.
package spec

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// DefaultMaxDepth is the depth range's upper bound when neither
// explicit depths nor max_depth are given — the paper's simulated
// range tops out at 25 stages.
const DefaultMaxDepth = 25

// DefaultLeakageFraction mirrors power.DefaultModel's 15% leakage at
// the reference depth.
const DefaultLeakageFraction = 0.15

// Spec is a study specification: which workloads to sweep over which
// depths, under which machine and power model, optimizing which
// BIPS^m/W figure of merit.
type Spec struct {
	// Workloads are catalog workload names; empty means the entire
	// 55-workload catalog.
	Workloads []string `json:"workloads,omitempty"`
	// Depths lists the exact depths to simulate, strictly ascending.
	// Mutually exclusive with MinDepth/MaxDepth.
	Depths []int `json:"depths,omitempty"`
	// MinDepth and MaxDepth give the depth range [min, max] when
	// Depths is empty; defaults 2 and DefaultMaxDepth.
	MinDepth int `json:"min_depth,omitempty"`
	MaxDepth int `json:"max_depth,omitempty"`
	// Instructions per simulated run; core.DefaultInstructions if 0.
	Instructions int `json:"instructions,omitempty"`
	// Warmup instructions priming caches and the predictor before the
	// measured portion; core.DefaultWarmup if 0, -1 for none.
	Warmup int `json:"warmup,omitempty"`
	// Machine is the pipeline preset name; "zseries" if empty.
	Machine string `json:"machine,omitempty"`
	// OutOfOrder enables register renaming and out-of-order issue on
	// top of the preset.
	OutOfOrder bool `json:"ooo,omitempty"`
	// MetricExponent is the m of BIPS^m/W: 1, 2 or 3 (0 defaults to 3,
	// the paper's headline metric).
	MetricExponent float64 `json:"metric_exponent,omitempty"`
	// Gated selects the clock-gating discipline the metric and optimum
	// are reported under; nil defaults to true. Both disciplines are
	// always simulated and present in the result.
	Gated *bool `json:"gated,omitempty"`
	// LeakageFraction sets the power model's leakage share of total
	// power at the reference depth, in [0, 1); nil defaults to
	// DefaultLeakageFraction.
	LeakageFraction *float64 `json:"leakage_fraction,omitempty"`
	// BetaUnit is the power model's per-unit latch-growth exponent;
	// nil defaults to power.DefaultBetaUnit.
	BetaUnit *float64 `json:"beta_unit,omitempty"`
}

// Limits bounds how much work one spec may request — the per-request
// half of the server's admission control, and a sanity rail for the
// CLIs. The zero value of any field means that limit's default.
type Limits struct {
	// MaxWorkloads caps the workload count per study.
	MaxWorkloads int
	// MaxDepths caps the depth points per workload.
	MaxDepths int
	// MaxPoints caps workloads × depths, the study's design points.
	MaxPoints int
	// MaxInstructions caps the per-run trace length (and the warm-up).
	MaxInstructions int
}

// DefaultLimits admits anything the catalog and simulator support: the
// full 55-workload catalog, the simulator's whole depth range, and
// traces up to 5M instructions.
func DefaultLimits() Limits {
	return Limits{
		MaxWorkloads:    workload.Count,
		MaxDepths:       pipeline.MaxSimDepth - pipeline.MinSimDepth + 1,
		MaxPoints:       workload.Count * (pipeline.MaxSimDepth - pipeline.MinSimDepth + 1),
		MaxInstructions: 5_000_000,
	}
}

func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxWorkloads <= 0 {
		l.MaxWorkloads = d.MaxWorkloads
	}
	if l.MaxDepths <= 0 {
		l.MaxDepths = d.MaxDepths
	}
	if l.MaxPoints <= 0 {
		l.MaxPoints = d.MaxPoints
	}
	if l.MaxInstructions <= 0 {
		l.MaxInstructions = d.MaxInstructions
	}
	return l
}

// Normalize returns the canonical form of the spec: depths enumerated
// (range form zeroed), every default filled in, knob pointers
// populated. Fingerprint, Profiles, StudyConfig and the server all
// operate on the normalized form, so two specs describing the same
// study normalize — and fingerprint — identically.
func (s Spec) Normalize() Spec {
	out := s
	out.Workloads = append([]string(nil), s.Workloads...)
	if len(out.Workloads) == 0 {
		out.Workloads = workload.Names()
	}
	if len(s.Depths) == 0 {
		lo, hi := s.MinDepth, s.MaxDepth
		if lo == 0 {
			lo = pipeline.MinSimDepth
		}
		if hi == 0 {
			hi = DefaultMaxDepth
		}
		out.Depths = nil
		for d := lo; d <= hi; d++ {
			out.Depths = append(out.Depths, d)
		}
	} else {
		out.Depths = append([]int(nil), s.Depths...)
	}
	out.MinDepth, out.MaxDepth = 0, 0
	if out.Instructions == 0 {
		out.Instructions = core.DefaultInstructions
	}
	if out.Warmup == 0 {
		out.Warmup = core.DefaultWarmup
	}
	if out.Warmup < 0 {
		out.Warmup = -1
	}
	if out.Machine == "" {
		out.Machine = string(pipeline.PresetZSeries)
	}
	if out.MetricExponent == 0 {
		out.MetricExponent = 3
	}
	if out.Gated == nil {
		g := true
		out.Gated = &g
	}
	if out.LeakageFraction == nil {
		f := DefaultLeakageFraction
		out.LeakageFraction = &f
	}
	if out.BetaUnit == nil {
		b := power.DefaultBetaUnit
		out.BetaUnit = &b
	}
	return out
}

// Validate reports the first problem with the spec under the given
// limits (zero-valued limit fields mean DefaultLimits). It accepts the
// raw form: unset fields validate as their defaults.
func (s Spec) Validate(lim Limits) error {
	lim = lim.withDefaults()

	if len(s.Depths) > 0 && (s.MinDepth != 0 || s.MaxDepth != 0) {
		return fmt.Errorf("spec: depths and min_depth/max_depth are mutually exclusive")
	}
	var depths []int
	if len(s.Depths) > 0 {
		prev := 0
		for _, d := range s.Depths {
			if d < pipeline.MinSimDepth || d > pipeline.MaxSimDepth {
				return fmt.Errorf("spec: depth %d outside the simulator's [%d, %d]",
					d, pipeline.MinSimDepth, pipeline.MaxSimDepth)
			}
			if d <= prev {
				return fmt.Errorf("spec: depths must be strictly ascending (%d after %d)", d, prev)
			}
			prev = d
		}
		depths = s.Depths
	} else {
		lo, hi := s.MinDepth, s.MaxDepth
		if lo == 0 {
			lo = pipeline.MinSimDepth
		}
		if hi == 0 {
			hi = DefaultMaxDepth
		}
		if lo < pipeline.MinSimDepth || lo > pipeline.MaxSimDepth {
			return fmt.Errorf("spec: min_depth %d outside the simulator's [%d, %d]",
				lo, pipeline.MinSimDepth, pipeline.MaxSimDepth)
		}
		if hi < pipeline.MinSimDepth || hi > pipeline.MaxSimDepth {
			return fmt.Errorf("spec: max_depth %d outside the simulator's [%d, %d]",
				hi, pipeline.MinSimDepth, pipeline.MaxSimDepth)
		}
		if lo > hi {
			return fmt.Errorf("spec: min_depth %d exceeds max_depth %d", lo, hi)
		}
		for d := lo; d <= hi; d++ {
			depths = append(depths, d)
		}
	}
	if len(depths) > lim.MaxDepths {
		return fmt.Errorf("spec: %d depths exceeds the per-study limit of %d", len(depths), lim.MaxDepths)
	}

	nWorkloads := len(s.Workloads)
	if nWorkloads == 0 {
		nWorkloads = workload.Count
	}
	if nWorkloads > lim.MaxWorkloads {
		return fmt.Errorf("spec: %d workloads exceeds the per-study limit of %d", nWorkloads, lim.MaxWorkloads)
	}
	seen := make(map[string]bool, len(s.Workloads))
	for _, name := range s.Workloads {
		if _, ok := workload.ByName(name); !ok {
			return fmt.Errorf("spec: unknown workload %q (see the catalog: %s, ...)",
				name, strings.Join(workload.Names()[:3], ", "))
		}
		if seen[name] {
			return fmt.Errorf("spec: workload %q listed twice", name)
		}
		seen[name] = true
	}
	if pts := nWorkloads * len(depths); pts > lim.MaxPoints {
		return fmt.Errorf("spec: %d design points (%d workloads × %d depths) exceeds the per-study limit of %d",
			pts, nWorkloads, len(depths), lim.MaxPoints)
	}

	if s.Instructions < 0 {
		return fmt.Errorf("spec: instructions must be non-negative (0 = default %d)", core.DefaultInstructions)
	}
	if s.Instructions > lim.MaxInstructions {
		return fmt.Errorf("spec: %d instructions exceeds the per-run limit of %d", s.Instructions, lim.MaxInstructions)
	}
	if s.Warmup < -1 {
		return fmt.Errorf("spec: warmup must be -1 (none), 0 (default %d) or positive", core.DefaultWarmup)
	}
	if s.Warmup > lim.MaxInstructions {
		return fmt.Errorf("spec: %d warmup instructions exceeds the per-run limit of %d", s.Warmup, lim.MaxInstructions)
	}

	if s.Machine != "" {
		valid := false
		for _, p := range pipeline.Presets() {
			if s.Machine == p {
				valid = true
				break
			}
		}
		if !valid {
			return fmt.Errorf("spec: unknown machine preset %q (one of %s)",
				s.Machine, strings.Join(pipeline.Presets(), ", "))
		}
	}

	switch s.MetricExponent {
	case 0, 1, 2, 3:
	default:
		return fmt.Errorf("spec: metric_exponent must be 1, 2 or 3 (0 = default 3), not %g", s.MetricExponent)
	}
	if f := s.LeakageFraction; f != nil && (*f < 0 || *f >= 1) {
		return fmt.Errorf("spec: leakage_fraction must be in [0, 1), not %g", *f)
	}
	if b := s.BetaUnit; b != nil && (*b <= 0 || *b > 3) {
		return fmt.Errorf("spec: beta_unit must be in (0, 3], not %g", *b)
	}
	return nil
}

// Profiles resolves the spec's workload names against the catalog, in
// spec order (catalog order when the spec means "all").
func (s Spec) Profiles() ([]workload.Profile, error) {
	s = s.Normalize()
	profs := make([]workload.Profile, 0, len(s.Workloads))
	for _, name := range s.Workloads {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("spec: unknown workload %q", name)
		}
		profs = append(profs, p)
	}
	return profs, nil
}

// Metric maps the spec's exponent onto the figure of merit.
func (s Spec) Metric() metrics.Kind {
	switch s.Normalize().MetricExponent {
	case 1:
		return metrics.BIPSPerWatt
	case 2:
		return metrics.BIPS2PerWatt
	default:
		return metrics.BIPS3PerWatt
	}
}

// IsGated reports the gating discipline the metric is evaluated under.
func (s Spec) IsGated() bool { return *s.Normalize().Gated }

// Model builds the spec's power model: the study baseline with the
// spec's latch-growth exponent and leakage fraction applied. A spec
// with default knobs reproduces power.DefaultModel bit-for-bit.
func (s Spec) Model() power.Model {
	s = s.Normalize()
	return power.DefaultModel().
		WithBetaUnit(*s.BetaUnit).
		WithLeakageFraction(*s.LeakageFraction, power.DefaultLeakageRefDepth)
}

// MachineFunc returns the per-depth machine builder for the spec's
// preset and out-of-order setting.
func (s Spec) MachineFunc() func(depth int) (pipeline.Config, error) {
	s = s.Normalize()
	preset, ooo := pipeline.Preset(s.Machine), s.OutOfOrder
	return func(depth int) (pipeline.Config, error) {
		mc, err := pipeline.PresetConfig(preset, depth)
		if err != nil {
			return mc, err
		}
		if ooo {
			mc.OutOfOrder = true
		}
		return mc, nil
	}
}

// StudyConfig builds the core sweep configuration the spec describes.
// Observers (Cache, Metrics, Progress, Spans, Invariants) and
// Parallelism are left for the caller to attach — they never change
// simulated results, so they are not part of the spec.
func (s Spec) StudyConfig() (core.StudyConfig, error) {
	s = s.Normalize()
	if err := s.Validate(Limits{}); err != nil {
		return core.StudyConfig{}, err
	}
	return core.StudyConfig{
		Depths:       append([]int(nil), s.Depths...),
		Instructions: s.Instructions,
		Warmup:       s.Warmup,
		Power:        s.Model(),
		Machine:      s.MachineFunc(),
	}, nil
}

// Points returns the study's design-point count.
func (s Spec) Points() int {
	s = s.Normalize()
	return len(s.Workloads) * len(s.Depths)
}

// Fingerprint is the spec's content address: the hash of its
// canonical (normalized) JSON form. Two specs that normalize to the
// same study share a fingerprint, so servers and caches can key work
// on it.
func (s Spec) Fingerprint() string {
	n := s.Normalize()
	// The workload list is part of the identity in order (a study over
	// [a, b] equals one over [b, a] point-for-point, but the result
	// payload lists workloads in spec order, so order is identity).
	data, err := json.Marshal(n)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it. Guard anyway.
		return telemetry.Fingerprint("spec-marshal-error")
	}
	return telemetry.Fingerprint(string(data))
}

// Summary renders a short human-readable description for logs.
func (s Spec) Summary() string {
	n := s.Normalize()
	wl := fmt.Sprintf("%d workloads", len(n.Workloads))
	if len(n.Workloads) == 1 {
		wl = n.Workloads[0]
	}
	mode := "plain"
	if *n.Gated {
		mode = "gated"
	}
	return fmt.Sprintf("%s × %d depths [%d..%d] × BIPS^%g/W (%s, %s, %d instr)",
		wl, len(n.Depths), n.Depths[0], n.Depths[len(n.Depths)-1],
		n.MetricExponent, mode, n.Machine, n.Instructions)
}
