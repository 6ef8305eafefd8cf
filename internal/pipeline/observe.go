package pipeline

import (
	"strconv"
	"sync"

	"repro/internal/branch"
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
// changes simulated behavior — into a stable hash for run manifests and
// result-cache keys. Models are identified by their descriptions.
//
// The rendered parts are pinned byte for byte by the key goldens: they
// are what fmt printed when keys were first written (%d, %t, %g, and
// %+v for the plan and the cache geometries). Each part is appended to
// a stack buffer and folded into the hash without fmt, because a
// served design point renders its key on every cache lookup.
func (c *Config) Fingerprint() string {
	var buf [256]byte
	h := telemetry.NewFingerprintHash()
	b := appendInts(append(buf[:0], "geom:"...), c.Width, c.AgenWidth, c.CachePorts, c.BranchWidth)
	b = appendInts(append(b, " q:"...), c.AgenQCap, c.ExecQCap, c.WindowCap)
	h.Part(strconv.AppendBool(append(b, " ooo:"...), c.OutOfOrder))
	h.Part(appendPlan(append(buf[:0], "plan:"...), &c.Plan))
	b = appendFloat(append(buf[:0], "tech:tp="...), c.TP)
	h.Part(appendFloat(append(b, ",to="...), c.TO))
	b = append(buf[:0], "none"...)
	if c.Predictor != (branch.PredictorConfig{}) {
		b = c.Predictor.AppendFingerprint(buf[:0])
	}
	h.Part(b)
	b = append(buf[:0], "none"...)
	if c.BTB != (branch.BTBConfig{}) {
		b = c.BTB.AppendFingerprint(buf[:0])
	}
	h.Part(b)
	b = append(buf[:0], "none"...)
	if c.Hierarchy != (cache.HierarchyConfig{}) {
		b = appendHierarchy(buf[:0], &c.Hierarchy)
	}
	h.Part(b)
	b = append(buf[:0], "none"...)
	if c.ICache != (cache.Config{}) {
		b = appendCacheGeometry(append(buf[:0], "icache:"...), c.ICache)
		b = appendFloat(append(b, '/'), c.ICacheMissFO4)
	}
	h.Part(b)
	// The constant "keep:false" keeps existing result-cache keys
	// stable. A Config carries no warm state: warmed models reach a
	// run through RunWith or their replayed Outcomes (RunReplayed),
	// and the warm-up length is a key field of its own.
	b = appendInts(append(buf[:0], "btbmiss:"...), c.BTBMissBubbles)
	b = strconv.AppendBool(append(b, " nonblock:"...), c.NonBlockingCache)
	b = strconv.AppendBool(append(b, " redirect:"...), c.RedirectBubble)
	b = strconv.AppendBool(append(b, " wrongpath:"...), c.WrongPathActivity)
	h.Part(append(b, " keep:false"...))
	// Sampling and abort limits change the produced Result (the
	// activity trace, possibly truncation) and so are identity.
	b = strconv.AppendUint(append(buf[:0], "sample:"...), c.SampleInterval, 10)
	h.Part(strconv.AppendUint(append(b, " maxcycles:"...), c.MaxCycles, 10))
	return h.String()
}

// appendInts appends the integers as fmt's %d renders them, separated
// by slashes.
func appendInts(b []byte, vs ...int) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, '/')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// appendFloat appends f as fmt's %g and %v render a float64.
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendPlan appends the plan as fmt's %+v renders it, merge-group
// units by their String names.
func appendPlan(b []byte, p *DepthPlan) []byte {
	b = appendInts(append(b, "{Depth:"...), p.Depth)
	b = appendInts(append(b, " Decode:"...), p.Decode)
	b = appendInts(append(b, " Agen:"...), p.Agen)
	b = appendInts(append(b, " Cache:"...), p.Cache)
	b = appendInts(append(b, " Exec:"...), p.Exec)
	b = append(b, " MergeGroups:["...)
	for i, g := range p.MergeGroups {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, '[')
		for j, u := range g {
			if j > 0 {
				b = append(b, ' ')
			}
			b = append(b, u.String()...)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// appendHierarchy appends the hierarchy as fmt's %+v renders it.
func appendHierarchy(b []byte, h *cache.HierarchyConfig) []byte {
	b = appendCacheGeometry(append(b, "{L1:"...), h.L1)
	b = appendCacheGeometry(append(b, " L2:"...), h.L2)
	b = appendFloat(append(b, " L2LatencyFO4:"...), h.L2LatencyFO4)
	b = appendFloat(append(b, " MemLatencyFO4:"...), h.MemLatencyFO4)
	b = appendInts(append(b, " PrefetchDegree:"...), h.PrefetchDegree)
	return append(b, '}')
}

// appendCacheGeometry appends a cache geometry as fmt's %+v renders
// it.
func appendCacheGeometry(b []byte, g cache.Config) []byte {
	b = appendInts(append(b, "{SizeBytes:"...), g.SizeBytes)
	b = appendInts(append(b, " LineBytes:"...), g.LineBytes)
	b = appendInts(append(b, " Ways:"...), g.Ways)
	return append(b, '}')
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
	names := resultMetricNames()
	for c := 0; c < NumStallCauses; c++ {
		reg.Counter(names.stallCycles[c]).Add(r.StallCycles[c])
	}
	for b := 0; b < NumCycleBuckets; b++ {
		reg.Counter(names.budget[b]).Add(r.CycleBudget[b])
	}
	for u := 0; u < NumUnits; u++ {
		reg.Counter(names.unitOps[u]).Add(r.UnitOps[u])
		reg.Counter(names.unitActive[u]).Add(r.UnitActive[u])
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
			accesses, misses, evictions string
			stats                       cache.Stats
		}{
			{"cache.l1.accesses", "cache.l1.misses", "cache.l1.evictions", t.L1},
			{"cache.l2.accesses", "cache.l2.misses", "cache.l2.evictions", t.L2},
		} {
			reg.Counter(lvl.accesses).Add(lvl.stats.Accesses)
			reg.Counter(lvl.misses).Add(lvl.stats.Misses)
			reg.Counter(lvl.evictions).Add(lvl.stats.Evictions)
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
	names := resultMetricNames()
	for u := 0; u < NumUnits; u++ {
		unit := Unit(u)
		occ := 0.0
		if r.Cycles > 0 {
			occ = float64(r.UnitActive[u]) / float64(r.Cycles)
		}
		reg.Gauge(names.unitDuty[u]).Set(r.UnitUtilization(unit))
		reg.Gauge(names.unitOccupancy[u]).Set(occ)
		reg.Gauge(names.unitStages[u]).Set(float64(r.Config.Plan.UnitStages(unit)))
	}
	for c := 0; c < NumStallCauses; c++ {
		frac := 0.0
		if r.Cycles > 0 {
			frac = float64(r.StallCycles[c]) / float64(r.Cycles)
		}
		reg.Gauge(names.stallFraction[c]).Set(frac)
	}
	for b := 0; b < NumCycleBuckets; b++ {
		reg.Gauge(names.budgetFraction[b]).Set(r.BudgetFraction(CycleBucket(b)))
	}
}

// metricNames are the per-unit, per-cause and per-bucket metric names
// PublishMetrics and PublishAttribution write. They do not depend on
// the run, so they are rendered once and shared by every design point.
type metricNames struct {
	unitOps, unitActive                 [NumUnits]string
	unitDuty, unitOccupancy, unitStages [NumUnits]string
	stallCycles, stallFraction          [NumStallCauses]string
	budget, budgetFraction              [NumCycleBuckets]string
}

var resultMetricNames = sync.OnceValue(func() *metricNames {
	n := new(metricNames)
	for u := 0; u < NumUnits; u++ {
		un := Unit(u).String()
		n.unitOps[u] = "pipeline.unit_ops." + un
		n.unitActive[u] = "pipeline.unit_active." + un
		n.unitDuty[u] = telemetry.LabelName("pipeline_unit_duty", "unit", un)
		n.unitOccupancy[u] = telemetry.LabelName("pipeline_unit_occupancy", "unit", un)
		n.unitStages[u] = telemetry.LabelName("pipeline_unit_stages", "unit", un)
	}
	for c := 0; c < NumStallCauses; c++ {
		cause := StallCause(c).String()
		n.stallCycles[c] = "pipeline.stall_cycles." + cause
		n.stallFraction[c] = telemetry.LabelName("pipeline_stall_fraction", "cause", cause)
	}
	for b := 0; b < NumCycleBuckets; b++ {
		bucket := CycleBucket(b).String()
		n.budget[b] = "pipeline.budget." + bucket
		n.budgetFraction[b] = telemetry.LabelName("pipeline_cycle_budget_fraction", "bucket", bucket)
	}
	return n
})
