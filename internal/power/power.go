// Package power implements the per-unit power monitor of the paper's
// simulation methodology (§3): each microarchitectural unit carries a
// relative power factor, unit power scales with the unit's latch count
// (which grows as stage-count^β with β = 1.3 per unit), merged units
// contribute the greater of their powers, and total power is evaluated
// under both a fine-grained clock-gating model (units draw dynamic
// power only on cycles they actually switch) and a non-gated model
// (all units switch every cycle).
package power

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// DefaultBetaUnit is the per-unit latch growth exponent observed in
// the paper's simulator; it yields an overall latch count scaling of
// ≈ p^1.1 once fixed-size units dilute the growth (paper Fig. 3).
const DefaultBetaUnit = 1.3

// DefaultLeakageRefDepth anchors the leakage-fraction definition, as
// in the analytical model (see theory.DefaultLeakageRefDepth): the
// paper's "15% of the power usage" corresponds to P_d/P_l ≈ 278,
// which is the dynamic/leakage ratio at a ≈3-stage design.
const DefaultLeakageRefDepth = 3

// Model holds the power-model parameters.
type Model struct {
	// BetaUnit is the per-unit latch-growth exponent β.
	BetaUnit float64
	// Pd is the dynamic power factor per latch per unit frequency: a
	// unit switching every cycle draws Pd · latches · f_s.
	Pd float64
	// Pl is the leakage power per latch, drawn continuously.
	Pl float64
	// TP and TO are the technology constants (FO4) defining the
	// frequency at each depth.
	TP, TO float64
	// BaseLatches gives each unit's latch count at one stage. The
	// relative values follow the paper's practice of assigning each
	// unit a power factor (acknowledged to P. Bose); absolute scale is
	// immaterial because all reported metrics are normalized.
	BaseLatches [pipeline.NumUnits]float64
}

// defaultBaseLatches keeps the always-on/fixed units small relative to
// the depth-scaled logic units so that the overall latch count grows
// as ≈ p^1.1 when units grow as stages^1.3 (paper Fig. 3).
var defaultBaseLatches = [pipeline.NumUnits]float64{
	pipeline.UnitFetch:  30,
	pipeline.UnitDecode: 100,
	pipeline.UnitRename: 40,
	pipeline.UnitAgenQ:  12,
	pipeline.UnitAgen:   50,
	pipeline.UnitCache:  120,
	pipeline.UnitExecQ:  16,
	pipeline.UnitExec:   100,
	pipeline.UnitFPU:    40,
	pipeline.UnitRetire: 16,
}

// DefaultModel returns the study's baseline power model with 15%
// leakage at the reference depth.
func DefaultModel() Model {
	m := Model{
		BetaUnit:    DefaultBetaUnit,
		Pd:          1,
		TP:          140,
		TO:          2.5,
		BaseLatches: defaultBaseLatches,
	}
	return m.WithLeakageFraction(0.15, DefaultLeakageRefDepth)
}

// Validate reports model problems.
func (m Model) Validate() error {
	if m.BetaUnit <= 0 {
		return errors.New("power: BetaUnit must be positive")
	}
	if m.Pd < 0 || m.Pl < 0 || (m.Pd == 0 && m.Pl == 0) {
		return errors.New("power: need non-negative Pd, Pl, not both zero")
	}
	if m.TP <= 0 || m.TO <= 0 {
		return errors.New("power: technology constants must be positive")
	}
	for u, b := range m.BaseLatches {
		if b < 0 {
			return errors.New("power: negative base latches for " + pipeline.Unit(u).String())
		}
	}
	return nil
}

// Fingerprint renders the model's full parameter set into a stable
// hash. Two models with equal fingerprints price identical runs
// identically, so the fingerprint is part of the result-cache key:
// changing any parameter (β, P_d, P_l, technology, base latches)
// invalidates cached power figures.
func (m Model) Fingerprint() string {
	parts := make([]string, 0, pipeline.NumUnits+1)
	parts = append(parts, fmt.Sprintf("beta:%g pd:%g pl:%g tp:%g to:%g",
		m.BetaUnit, m.Pd, m.Pl, m.TP, m.TO))
	for u, b := range m.BaseLatches {
		parts = append(parts, fmt.Sprintf("latch:%s=%g", pipeline.Unit(u), b))
	}
	return telemetry.Fingerprint(parts...)
}

// WithLeakageFraction returns a copy of m whose leakage power is set
// so that leakage is the given fraction of total power for a
// fully-switching machine at the reference depth (dynamic power is
// left unchanged).
func (m Model) WithLeakageFraction(fraction float64, refDepth int) Model {
	if fraction <= 0 {
		m.Pl = 0
		return m
	}
	if fraction >= 1 {
		fraction = 0.999999
	}
	fs := 1 / (m.TO + m.TP/float64(refDepth))
	m.Pl = fraction / (1 - fraction) * m.Pd * fs
	return m
}

// WithBetaUnit returns a copy of m with the per-unit latch exponent.
func (m Model) WithBetaUnit(beta float64) Model {
	m.BetaUnit = beta
	return m
}

// UnitLatches returns the latch count of one unit under the given
// depth plan: base · stages^β, with a one-stage floor for merged or
// fixed units.
//
//lint:hotpath called per unit per power evaluation; must not allocate
func (m Model) UnitLatches(plan pipeline.DepthPlan, u pipeline.Unit) float64 {
	stages := plan.UnitStages(u)
	if stages < 1 {
		stages = 1
	}
	return m.BaseLatches[u] * math.Pow(float64(stages), m.BetaUnit)
}

// TotalLatches returns the machine's latch count under the plan,
// counting each merge group once (intervening latches are eliminated
// when units share a stage; the group is represented by its largest
// member, consistent with the max-power rule). It is the Latches of
// any breakdown under the plan.
func (m Model) TotalLatches(plan pipeline.DepthPlan) float64 {
	return m.breakdown(plan, &dynInput{}).Latches
}

// Breakdown reports the power of one simulated run, with the per-unit
// attribution the paper's monitor maintains (§3): every figure is also
// split per unit so Figures 9–10 style breakdowns are observable
// rather than internal.
type Breakdown struct {
	Gated   bool
	Dynamic float64
	Leakage float64
	PerUnit [pipeline.NumUnits]float64 // group power attributed to the group leader
	// PerUnitDynamic and PerUnitLeakage split PerUnit into its
	// switching and leakage components (PerUnit = dynamic + leakage,
	// element-wise; merged groups attributed to the leader).
	PerUnitDynamic [pipeline.NumUnits]float64
	PerUnitLeakage [pipeline.NumUnits]float64
	Latches        float64
}

// Total returns dynamic + leakage power.
func (b Breakdown) Total() float64 { return b.Dynamic + b.Leakage }

// Publish registers the breakdown's figures as gauges in the
// telemetry registry under the given prefix (e.g. "power.gated"):
// total, dynamic and leakage power, latch count, and the per-unit
// group powers.
func (b Breakdown) Publish(reg *telemetry.Registry, prefix string) {
	reg.Gauge(prefix + ".total").Set(b.Total())
	reg.Gauge(prefix + ".dynamic").Set(b.Dynamic)
	reg.Gauge(prefix + ".leakage").Set(b.Leakage)
	reg.Gauge(prefix + ".latches").Set(b.Latches)
	for u := 0; u < pipeline.NumUnits; u++ {
		if b.PerUnit[u] > 0 {
			reg.Gauge(prefix + ".unit." + pipeline.Unit(u).String()).Set(b.PerUnit[u])
		}
	}
}

// Mode names the gating discipline for telemetry labels.
func (b Breakdown) Mode() string {
	if b.Gated {
		return "gated"
	}
	return "plain"
}

// PublishAttribution registers the per-unit attribution as
// Prometheus-style labeled series (telemetry.LabelName convention),
// the observable form of the paper's per-unit power monitor:
//
//	power_unit_power_watts{component,depth,mode,unit}
//	power_unit_energy_joules{component,depth,mode,unit}
//	power_total_watts{depth,mode}
//
// component is "dynamic" or "leakage"; mode is the gating discipline.
// Energy is power × runFO4 (the run's execution time in FO4): like
// BIPS and watts here, its absolute scale is arbitrary but consistent
// across design points, which is all the normalized figures need.
// Units whose attributed power is zero (non-leading merge-group
// members) are skipped.
func (b Breakdown) PublishAttribution(reg *telemetry.Registry, depth int, runFO4 float64) {
	names := attributionNamesFor(depth, b.Gated)
	reg.Gauge(names.total).Set(b.Total())
	for u := 0; u < pipeline.NumUnits; u++ {
		if b.PerUnit[u] == 0 {
			continue
		}
		for c, watts := range [2]float64{b.PerUnitDynamic[u], b.PerUnitLeakage[u]} {
			reg.Gauge(names.power[u][c]).Set(watts)
			reg.Gauge(names.energy[u][c]).Set(watts * runFO4)
		}
	}
}

// attributionNames are the metric names PublishAttribution writes at
// one (depth, gating mode), indexed by unit and then by component
// (dynamic, leakage).
type attributionNames struct {
	total         string
	power, energy [pipeline.NumUnits][2]string
}

// attributionTables holds the names of every simulable depth, rendered
// on first use and then shared, [depth][gated]: every design point of
// a sweep publishes the same names.
var attributionTables [pipeline.MaxSimDepth + 1][2]atomic.Pointer[attributionNames]

// attributionNamesFor returns the names for a depth and gating mode.
// Racing first uses render equal tables, and either may be kept.
func attributionNamesFor(depth int, gated bool) *attributionNames {
	if depth < 0 || depth > pipeline.MaxSimDepth {
		return newAttributionNames(depth, gated)
	}
	slot := &attributionTables[depth][0]
	if gated {
		slot = &attributionTables[depth][1]
	}
	if n := slot.Load(); n != nil {
		return n
	}
	n := newAttributionNames(depth, gated)
	slot.Store(n)
	return n
}

func newAttributionNames(depth int, gated bool) *attributionNames {
	mode, d := Breakdown{Gated: gated}.Mode(), strconv.Itoa(depth)
	n := &attributionNames{total: telemetry.LabelName("power_total_watts", "mode", mode, "depth", d)}
	for u := 0; u < pipeline.NumUnits; u++ {
		un := pipeline.Unit(u).String()
		for c, component := range [2]string{"dynamic", "leakage"} {
			n.power[u][c] = telemetry.LabelName("power_unit_power_watts",
				"unit", un, "mode", mode, "component", component, "depth", d)
			n.energy[u][c] = telemetry.LabelName("power_unit_energy_joules",
				"unit", un, "mode", mode, "component", component, "depth", d)
		}
	}
	return n
}

// LeakageFraction returns leakage / total.
func (b Breakdown) LeakageFraction() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b.Leakage / t
}

// dynInput carries everything unitDyn needs to price one unit's
// dynamic power, passed by pointer through direct method calls so the
// whole evaluation stays closure-free and allocation-free (the
// AllocsPerRun guard in power_alloc_test.go pins this at zero).
type dynInput struct {
	r      *pipeline.Result
	fs     float64
	gated  bool
	cycles float64 // Evaluate form: whole-run utilization when > 0
	// SamplePower form: one activity-trace interval.
	sample   bool
	sm       pipeline.ActivitySample
	interval uint64
}

// unitDyn prices the dynamic power of one unit holding latches latches
// for the run or interval described by d.
//
//lint:hotpath called per unit per power evaluation; must not allocate
func (m Model) unitDyn(d *dynInput, u pipeline.Unit, latches float64) float64 {
	act := 1.0
	switch {
	case !d.gated:
	case d.sample:
		if d.interval > 0 {
			if u == pipeline.UnitFPU {
				act = float64(d.sm.UnitActive[u]) / float64(d.interval)
			} else {
				act = float64(d.sm.UnitOps[u]) / (float64(d.interval) * float64(d.r.UnitWidth(u)))
			}
			if act > 1 {
				act = 1
			}
		}
	case d.cycles > 0:
		// Fine-grained gating: switching is proportional to the
		// instructions flowing through the unit, not to raw clock
		// cycles — the simulation counterpart of the paper's
		// f_cg·f_s → κ·(T/N_I)⁻¹ approximation.
		act = d.r.UnitUtilization(u)
	}
	return m.Pd * latches * d.fs * act
}

// breakdown accumulates the per-unit attribution shared by Evaluate
// and SamplePower: merge groups contribute the greater of their
// members' dynamic powers and latch counts, attributed to the leader.
// Each unit's latches are priced once.
//
//lint:hotpath per-evaluation body shared by Evaluate, SamplePower and TotalLatches; must not allocate
func (m Model) breakdown(plan pipeline.DepthPlan, d *dynInput) Breakdown {
	var lat [pipeline.NumUnits]float64
	for u := range lat {
		lat[u] = m.UnitLatches(plan, pipeline.Unit(u))
	}
	b := Breakdown{Gated: d.gated}
	for u := 0; u < pipeline.NumUnits; u++ {
		unit := pipeline.Unit(u)
		group := plan.MergeGroup(unit)
		if len(group) > 0 && group[0] != unit {
			continue // the group's first member accounts for it
		}
		dyn, l := m.unitDyn(d, unit, lat[u]), lat[u]
		for _, o := range group {
			if o == unit {
				continue
			}
			if od := m.unitDyn(d, o, lat[o]); od > dyn {
				dyn = od
			}
			if lat[o] > l {
				l = lat[o]
			}
		}
		leak := m.Pl * l
		b.PerUnitDynamic[u] = dyn
		b.PerUnitLeakage[u] = leak
		b.PerUnit[u] = dyn + leak
		b.Dynamic += dyn
		b.Leakage += leak
		b.Latches += l
	}
	return b
}

// Evaluate computes the power drawn during the simulated run. With
// gated = true, each unit draws dynamic power only on the cycles the
// simulator observed it switching; otherwise every unit switches every
// cycle. Merged units contribute the greater of their powers (§3).
//
//lint:hotpath per design point and per benchmark evaluation; zero steady-state allocations (see power_alloc_test.go)
func (m Model) Evaluate(r *pipeline.Result, gated bool) Breakdown {
	d := dynInput{
		r:      r,
		fs:     1 / r.Config.CycleTime(),
		gated:  gated,
		cycles: float64(r.Cycles),
	}
	b := m.breakdown(r.Config.Plan, &d)
	if rec := r.Config.Invariants; rec != nil {
		CheckBreakdown(rec, b)
	}
	return b
}

// SamplePower evaluates the power drawn during one activity-trace
// interval of a run (requires Config.SampleInterval > 0 during the
// simulation). Gating semantics match Evaluate, applied to the
// interval's own utilization.
//
//lint:hotpath per trace interval; zero steady-state allocations (see power_alloc_test.go)
func (m Model) SamplePower(r *pipeline.Result, sm pipeline.ActivitySample, interval uint64, gated bool) Breakdown {
	d := dynInput{
		r:        r,
		fs:       1 / r.Config.CycleTime(),
		gated:    gated,
		sample:   true,
		sm:       sm,
		interval: interval,
	}
	return m.breakdown(r.Config.Plan, &d)
}

// PowerTrace evaluates every interval of a sampled run into a power
// time series.
func (m Model) PowerTrace(r *pipeline.Result, gated bool) []Breakdown {
	iv := r.Config.SampleInterval
	out := make([]Breakdown, len(r.Samples))
	for i, sm := range r.Samples {
		out[i] = m.SamplePower(r, sm, iv, gated)
	}
	return out
}

// LatchCurve evaluates TotalLatches across depths — the data behind
// the paper's Figure 3.
func (m Model) LatchCurve(depths []int) ([]float64, error) {
	out := make([]float64, len(depths))
	for i, d := range depths {
		plan, err := pipeline.PlanDepth(d)
		if err != nil {
			return nil, err
		}
		out[i] = m.TotalLatches(plan)
	}
	return out, nil
}
