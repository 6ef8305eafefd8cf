package pipeline

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// UnitNames returns the unit name table in Unit order, for telemetry
// schemas (tracer unit bitmasks) and metric naming.
func UnitNames() []string {
	out := make([]string, NumUnits)
	for u := 0; u < NumUnits; u++ {
		out[u] = Unit(u).String()
	}
	return out
}

// StallCauseNames returns the stall-cause name table in StallCause
// order, for telemetry schemas.
func StallCauseNames() []string {
	out := make([]string, NumStallCauses)
	for c := 0; c < NumStallCauses; c++ {
		out[c] = StallCause(c).String()
	}
	return out
}

// classNames returns the instruction-class name table in isa.Class
// order.
func classNames() []string {
	out := make([]string, isa.NumClasses)
	for c := 0; c < isa.NumClasses; c++ {
		out[c] = isa.Class(c).String()
	}
	return out
}

// NewTracer builds a tracer whose schema (unit, stall-cause and
// instruction-class names) matches this simulator, holding up to
// capacity events (telemetry.DefaultTraceEvents if ≤ 0). Assign it to
// Config.Tracer to record a run.
func NewTracer(capacity int) *telemetry.Tracer {
	tr := telemetry.NewTracer(capacity)
	tr.SetSchema(UnitNames(), StallCauseNames(), classNames())
	return tr
}

// Fingerprint renders the configuration's identity — every field that
// changes simulated behavior — into a stable hash for run manifests.
// Models are identified by their descriptions.
func (c *Config) Fingerprint() string {
	pred, btb, hier, icache := "none", "none", "none", "none"
	if c.hasPredictor() {
		pred = c.Predictor.Fingerprint()
	}
	if c.hasBTB() {
		btb = c.BTB.Fingerprint()
	}
	if c.hasHierarchy() {
		hier = fmt.Sprintf("%+v", c.Hierarchy)
	}
	if c.hasICache() {
		icache = fmt.Sprintf("icache:%+v/%g", c.ICache, c.ICacheMissFO4)
	}
	return telemetry.Fingerprint(
		fmt.Sprintf("geom:%d/%d/%d/%d q:%d/%d/%d ooo:%t",
			c.Width, c.AgenWidth, c.CachePorts, c.BranchWidth,
			c.AgenQCap, c.ExecQCap, c.WindowCap, c.OutOfOrder),
		fmt.Sprintf("plan:%+v", c.Plan),
		fmt.Sprintf("tech:tp=%g,to=%g", c.TP, c.TO),
		pred, btb, hier, icache,
		// The constant "keep:false" keeps existing result-cache keys
		// stable. A Config carries no warm state: warmed models reach a
		// run through RunWith or their replayed Outcomes (RunReplayed),
		// and the warm-up length is a key field of its own.
		fmt.Sprintf("btbmiss:%d nonblock:%t redirect:%t wrongpath:%t keep:false",
			c.BTBMissBubbles, c.NonBlockingCache, c.RedirectBubble,
			c.WrongPathActivity),
		// Sampling and abort limits change the produced Result (the
		// activity trace, possibly truncation) and so are identity.
		fmt.Sprintf("sample:%d maxcycles:%d", c.SampleInterval, c.MaxCycles),
	)
}

// PublishMetrics registers the run's outcome into the registry: one
// namespaced counter per figure the power monitor and stall
// accounting track, plus the attached cache hierarchy's (cache.l1.*,
// cache.l2.*) and BTB's (btb.*) traffic over the measured window,
// warm-up excluded. Counters aggregate across runs published into the
// same registry; gauges (ipc, bips) reflect the latest run.
func (r *Result) PublishMetrics(reg *telemetry.Registry) {
	reg.Counter("pipeline.instructions").Add(r.Instructions)
	reg.Counter("pipeline.cycles").Add(r.Cycles)
	reg.Counter("pipeline.issue_cycles").Add(r.IssueCycles)
	reg.Counter("pipeline.branches").Add(r.Branches)
	reg.Counter("pipeline.branch_mispredicts").Add(r.Hazards.BranchMispredicts)
	reg.Counter("pipeline.l1_misses").Add(r.L1Misses)
	reg.Counter("pipeline.hazards").Add(r.Hazards.Total())
	for c := 0; c < NumStallCauses; c++ {
		reg.Counter("pipeline.stall_cycles." + StallCause(c).String()).Add(r.StallCycles[c])
	}
	for b := 0; b < NumCycleBuckets; b++ {
		reg.Counter("pipeline.budget." + CycleBucket(b).String()).Add(r.CycleBudget[b])
	}
	for u := 0; u < NumUnits; u++ {
		un := Unit(u).String()
		reg.Counter("pipeline.unit_ops." + un).Add(r.UnitOps[u])
		reg.Counter("pipeline.unit_active." + un).Add(r.UnitActive[u])
	}
	h := reg.Histogram("pipeline.issue_width")
	for width, cycles := range r.IssueHist {
		h.ObserveN(uint64(width), cycles)
	}
	reg.Gauge("pipeline.ipc").Set(r.IPC())
	reg.Gauge("pipeline.bips").Set(r.BIPS())
	r.PublishAttribution(reg)
	if t := r.Traffic; t.HasHierarchy {
		for _, lvl := range [...]struct {
			name  string
			stats cache.Stats
		}{{"l1", t.L1}, {"l2", t.L2}} {
			reg.Counter("cache." + lvl.name + ".accesses").Add(lvl.stats.Accesses)
			reg.Counter("cache." + lvl.name + ".misses").Add(lvl.stats.Misses)
			reg.Counter("cache." + lvl.name + ".evictions").Add(lvl.stats.Evictions)
		}
	}
	if t := r.Traffic; t.HasBTB {
		reg.Counter("btb.lookups").Add(t.BTB.Lookups)
		reg.Counter("btb.hits").Add(t.BTB.Hits)
	}
}

// PublishAttribution registers the per-unit and per-cause view of the
// run as Prometheus-style labeled series (telemetry.LabelName
// convention), the observable counterpart of the paper's per-cycle
// unit monitor:
//
//	pipeline_unit_duty{unit}       — slot utilization, the fine-grained
//	                                 clock-gating duty factor
//	pipeline_unit_occupancy{unit}  — fraction of cycles the unit
//	                                 switched at all
//	pipeline_unit_stages{unit}     — stages allocated under the plan
//	pipeline_stall_fraction{cause} — stall cycles per total cycle
//	pipeline_cycle_budget_fraction{bucket} — share of all cycles
//	                                 attributed to the budget bucket
//
// Gauges describe the most recent run published into the registry.
func (r *Result) PublishAttribution(reg *telemetry.Registry) {
	for u := 0; u < NumUnits; u++ {
		unit := Unit(u)
		un := unit.String()
		occ := 0.0
		if r.Cycles > 0 {
			occ = float64(r.UnitActive[u]) / float64(r.Cycles)
		}
		reg.Gauge(telemetry.LabelName("pipeline_unit_duty", "unit", un)).Set(r.UnitUtilization(unit))
		reg.Gauge(telemetry.LabelName("pipeline_unit_occupancy", "unit", un)).Set(occ)
		reg.Gauge(telemetry.LabelName("pipeline_unit_stages", "unit", un)).
			Set(float64(r.Config.Plan.UnitStages(unit)))
	}
	for c := 0; c < NumStallCauses; c++ {
		frac := 0.0
		if r.Cycles > 0 {
			frac = float64(r.StallCycles[c]) / float64(r.Cycles)
		}
		reg.Gauge(telemetry.LabelName("pipeline_stall_fraction", "cause", StallCause(c).String())).Set(frac)
	}
	for b := 0; b < NumCycleBuckets; b++ {
		bucket := CycleBucket(b)
		reg.Gauge(telemetry.LabelName("pipeline_cycle_budget_fraction", "bucket", bucket.String())).
			Set(r.BudgetFraction(bucket))
	}
}
