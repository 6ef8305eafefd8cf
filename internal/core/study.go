// Package core is the public façade of the pipeline-depth study: it
// orchestrates depth sweeps of the cycle-accurate simulator over
// workloads, evaluates the power model under both gating disciplines,
// extracts per-workload optima with the paper's cubic least-squares
// analysis, and connects the measurements to the analytical model of
// package theory.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fit"
	"repro/internal/invariant"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/resultcache"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/theory"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DefaultInstructions is the default measured trace length per run.
const DefaultInstructions = 30000

// DefaultWarmup is the default architectural warm-up length: before
// measurement, this many instructions prime the cache hierarchy and
// branch predictor (trace-driven simulators measure steady state, as
// the paper's carefully selected trace tapes do).
const DefaultWarmup = 30000

// DefaultRefDepth is the depth used for single-run parameter
// extraction (theory curves are predicted from one simulation, §5).
const DefaultRefDepth = 10

// StudyConfig controls a depth-sweep study.
type StudyConfig struct {
	// Depths to simulate; DefaultDepths() if nil.
	Depths []int
	// Instructions per run; DefaultInstructions if 0.
	Instructions int
	// Warmup instructions priming caches and predictor before the
	// measured portion; DefaultWarmup if 0, negative for none.
	Warmup int
	// Power model; power.DefaultModel() if zero-valued (detected via
	// Pd == 0).
	Power power.Model
	// Machine builds the simulator configuration for a depth;
	// pipeline.DefaultConfig if nil.
	Machine func(depth int) (pipeline.Config, error)
	// Engine selects skip-ahead for every simulated point. The default
	// (pipeline.EngineAuto) takes each workload's packed measured trace
	// and its model outcomes from the process-wide memo, built once per
	// sweep, and simulates every depth on them with stall-span
	// skip-ahead; pipeline.EnginePerCycle runs each point with
	// skip-ahead off on models warmed from a fresh generator stream,
	// bypassing the memo, so the differential tiers check the memo too.
	// The settings are bit-identical by contract, so the knob never
	// changes results or result-cache keys — only throughput.
	Engine pipeline.EngineKind
	// Parallelism bounds concurrent workload sweeps in RunCatalog;
	// runtime.NumCPU() if 0.
	Parallelism int
	// Cache, when non-nil, memoizes design points: every (machine
	// config, power model, workload, depth, instructions, warmup) cell
	// already present is served without simulation, making interrupted
	// or extended sweeps resumable. The cache holds only what the
	// simulator measured; a served point's power is priced on read, as
	// a simulated point's is. Design points carrying an event tracer
	// bypass the cache (a cached hit records no events). A nil cache
	// means every point simulates.
	Cache *resultcache.Cache
	// Metrics, when non-nil, receives live sweep observables as design
	// points complete: the sweep.points_total gauge and
	// sweep.points_completed / sweep.cache_hits counters, per-point
	// duration histograms (sweep.point_us, sweep.point_cached_us),
	// every run's pipeline counters, and the per-unit power
	// attribution series (power_unit_*). Scraping the registry during
	// a run (promexp at /metrics) watches the sweep fill in.
	Metrics *telemetry.Registry
	// Progress, when non-nil, is invoked once per completed design
	// point, concurrently from worker goroutines and in completion
	// order (not depth order). The hook must be safe for concurrent
	// use and should return quickly — the sweep blocks on it.
	Progress func(Progress)
	// Spans, when non-nil, records the hierarchical cost-attribution
	// trace of the run: a study → workload → point tree with a child
	// span per phase (cache, decode, warmup, simulate, power), each
	// feeding a "span.<name>_us" histogram when the tracer carries a
	// registry. Like Metrics and Progress, Spans is an observer — it
	// never changes simulated results. A nil tracer costs only nil
	// checks.
	Spans *span.Tracer
	// Invariants, when non-nil, attaches the runtime conformance
	// engine to every simulated design point: pipeline conservation
	// and capacity laws check during simulation (on every stepped
	// cycle of the configured Engine), power sanity laws check during
	// evaluation, and gated power is asserted never to exceed ungated.
	// A point served from the cache is not re-simulated, so only its
	// power laws check (the conformance harness re-verifies restored
	// results). The Recorder is shared across the sweep's workers (it
	// is concurrency-safe), so violation counts aggregate study-wide.
	Invariants *invariant.Recorder
	// Parent, when non-nil, nests the run's span tree under an
	// enclosing span owned by the caller — depthd sets it to the job
	// span so a job's study/workload/point phases roll up under the
	// job in ledger events. Must be a span of the same tracer as
	// Spans; ignored when Spans is nil.
	Parent *span.Span

	// prog is the shared completion counter, preset by RunCatalog so
	// per-workload sweeps report catalog-wide progress.
	prog *progressState
	// parentSpan is the enclosing span for nested phases: the study
	// span inside RunCatalog, the workload span inside RunSweep.
	parentSpan *span.Span
}

// startSpan opens a span under the configured parent (or a root span
// when there is none). Returns nil — a universal no-op — when span
// tracing is off.
func (c *StudyConfig) startSpan(name string, attrs ...span.Attr) *span.Span {
	if c.parentSpan != nil {
		return c.parentSpan.Child(name, attrs...)
	}
	if c.Parent != nil && c.Spans != nil {
		return c.Parent.Child(name, attrs...)
	}
	return c.Spans.Start(name, attrs...)
}

// Progress reports one completed design point to StudyConfig.Progress.
type Progress struct {
	Workload string
	Class    workload.Class
	Depth    int
	Done     int // points completed so far, this one included
	Total    int // points in the whole run (catalog-wide under RunCatalog)
	CacheHit bool
	Elapsed  time.Duration // time spent producing this point
	Point    DepthPoint
}

type progressState struct {
	done  atomic.Int64
	total int64
}

// observed reports whether any completion bookkeeping is configured.
func (c StudyConfig) observed() bool { return c.Metrics != nil || c.Progress != nil }

// startProgress initializes the shared completion counter for a run
// of total points, publishing the total when a registry is attached.
func (c *StudyConfig) startProgress(total int) {
	c.prog = &progressState{total: int64(total)}
	if c.Metrics != nil {
		c.Metrics.Gauge("sweep.points_total").Set(float64(total))
	}
}

// notePoint records one completed design point: counters, duration
// histograms, per-unit power attribution, and the progress hook.
func (c *StudyConfig) notePoint(prof *workload.Profile, depth int, pt *DepthPoint, hit bool, dur time.Duration) {
	if c.prog == nil {
		return
	}
	done := int(c.prog.done.Add(1))
	if c.Metrics != nil {
		c.Metrics.Counter("sweep.points_completed").Inc()
		if hit {
			c.Metrics.Counter("sweep.cache_hits").Inc()
			c.Metrics.Histogram("sweep.point_cached_us").Observe(uint64(dur.Microseconds()))
		} else {
			c.Metrics.Histogram("sweep.point_us").Observe(uint64(dur.Microseconds()))
		}
		runFO4 := pt.Result.TimeFO4()
		pt.GatedPower.PublishAttribution(c.Metrics, depth, runFO4)
		pt.PlainPower.PublishAttribution(c.Metrics, depth, runFO4)
		pt.Result.PublishMetrics(c.Metrics)
	}
	if c.Progress != nil {
		c.Progress(Progress{
			Workload: prof.Name,
			Class:    prof.Class,
			Depth:    depth,
			Done:     done,
			Total:    int(c.prog.total),
			CacheHit: hit,
			Elapsed:  dur,
			Point:    *pt,
		})
	}
}

// DefaultDepths returns the paper's simulated range, 2–25 stages.
func DefaultDepths() []int {
	out := make([]int, 0, 24)
	for d := 2; d <= 25; d++ {
		out = append(out, d)
	}
	return out
}

func (c StudyConfig) withDefaults() StudyConfig {
	if c.Depths == nil {
		c.Depths = DefaultDepths()
	}
	if c.Instructions == 0 {
		c.Instructions = DefaultInstructions
	}
	if c.Warmup == 0 {
		c.Warmup = DefaultWarmup
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.Power.Pd == 0 {
		c.Power = power.DefaultModel()
	}
	if c.Machine == nil {
		c.Machine = pipeline.DefaultConfig
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
	return c
}

// DepthPoint is one simulated design point of a sweep.
type DepthPoint struct {
	Depth      int
	FO4        float64 // per-stage delay t_o + t_p/depth
	Result     *pipeline.Result
	GatedPower power.Breakdown
	PlainPower power.Breakdown
}

// Sweep is one workload simulated across all depths.
type Sweep struct {
	Workload workload.Profile
	Points   []DepthPoint
}

// RunSweep simulates one workload across the configured depths.
// Depths run concurrently (bounded by cfg.Parallelism): every depth
// gets its own generator replaying the identical stream and its own
// machine state, so results are bit-identical to a serial sweep.
func RunSweep(cfg StudyConfig, prof workload.Profile) (*Sweep, error) {
	cfg = cfg.withDefaults()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if cfg.prog == nil && cfg.observed() {
		cfg.startProgress(len(cfg.Depths))
	}
	wsp := cfg.startSpan("workload",
		span.String("workload", prof.Name), span.Int("depths", len(cfg.Depths)))
	defer wsp.End()
	cfg.parentSpan = wsp
	sw := &sweepRun{cfg: cfg, prof: prof}
	if cfg.Cache != nil {
		sw.key = sweepKey(cfg, prof)
	}
	// Each depth's goroutine fills its slot of points in place: a
	// DepthPoint is over half a kilobyte, and keeping it out of the
	// goroutine's frames lets a served point's fresh stack grow once
	// rather than again inside the cache key's fmt rendering.
	points := make([]DepthPoint, len(cfg.Depths))
	errs := make([]error, len(cfg.Depths))
	sem := make(chan struct{}, cfg.Parallelism)
	var wg sync.WaitGroup
	for i, d := range cfg.Depths {
		wg.Add(1)
		go func(i, d int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			hit, err := sw.runPoint(d, &points[i])
			errs[i] = err
			if err == nil {
				cfg.notePoint(&prof, d, &points[i], hit, time.Since(start))
			}
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: %s at depth %d: %w", prof.Name, cfg.Depths[i], err)
		}
	}
	return &Sweep{Workload: prof, Points: points}, nil
}

// sweepRun is what one RunSweep's depth points share: the result-cache
// key fields that are the same at every depth, and the workload's memo
// entry, fetched by the first point that has to simulate. A sweep
// served wholly from the cache never packs its trace.
type sweepRun struct {
	cfg  StudyConfig
	prof workload.Profile
	key  resultcache.Key // every field but ConfigHash and Depth

	once sync.Once
	ent  *memoEntry
	err  error
}

// entry returns the workload's memo entry, or nil on the per-cycle
// engine, which bypasses the memo. The first call packs the trace (or
// finds it memoized) under a "pack" span of the point psp that needed
// it: every depth replays the identical instruction stream, so the
// decode work amortizes across the sweep, and the packed trace and
// its model outcomes, immutable once built, are shared read-only by
// the depth workers and memoized process-wide for repeated studies.
func (s *sweepRun) entry(psp *span.Span) (*memoEntry, error) {
	if s.cfg.Engine == pipeline.EnginePerCycle {
		return nil, nil
	}
	s.once.Do(func() {
		sp := psp.Child("pack", span.Int("instructions", s.cfg.Warmup+s.cfg.Instructions))
		s.ent, s.err = packedFor(s.cfg, s.prof)
		sp.End()
	})
	return s.ent, s.err
}

// runPoint simulates one design point with fresh machine state,
// consulting the result cache first when one is configured. With a
// memo entry the point runs on its shared packed trace and the model
// outcomes of its cell (cursors are per-point, the columns are shared
// read-only); otherwise it warms fresh models on a fresh generator.
// It fills *pt and reports whether the point was served from the cache.
func (s *sweepRun) runPoint(depth int, pt *DepthPoint) (bool, error) {
	cfg, prof := s.cfg, s.prof
	psp := cfg.startSpan("point",
		span.String("workload", prof.Name), span.Int("depth", depth))
	defer psp.End()
	mc, err := cfg.Machine(depth)
	if err != nil {
		return false, fmt.Errorf("machine: %w", err)
	}
	if cfg.Invariants != nil && mc.Invariants == nil {
		mc.Invariants = cfg.Invariants
	}
	// A tracer-carrying run must actually execute to record events, so
	// it neither reads nor populates the cache.
	useCache := cfg.Cache != nil && mc.Tracer == nil
	var key resultcache.Key
	if useCache {
		key = cacheKey(s.key, &mc, depth)
		csp := psp.Child("cache", span.String("op", "get"))
		v, ok := cfg.Cache.Get(key)
		csp.End()
		if ok {
			psp.SetAttr("cache", "hit")
			pricePoint(pt, &cfg, depth, v.Restore(mc), psp)
			return true, nil
		}
	}
	ent, err := s.entry(psp)
	if err != nil {
		return false, err
	}
	mc.Engine = cfg.Engine
	res, err := simulatePoint(cfg, prof, mc, ent, psp)
	if err != nil {
		return false, err
	}
	pricePoint(pt, &cfg, depth, res, psp)
	if useCache {
		// A failed store is only a lost memoization, not a sweep
		// failure; the cache has already counted it.
		csp := psp.Child("cache", span.String("op", "put"))
		_ = cfg.Cache.Put(key, res.Data())
		csp.End()
	}
	return false, nil
}

// pricePoint fills *pt with the design point of a measured result,
// simulated or served from the cache alike: the machine's cycle time and
// both power breakdowns, priced under the study's model inside the
// point's power span, with the gated-below-ungated law checked.
func pricePoint(pt *DepthPoint, cfg *StudyConfig, depth int, res *pipeline.Result, psp *span.Span) {
	sp := psp.Child("power")
	defer sp.End()
	*pt = DepthPoint{
		Depth:      depth,
		FO4:        res.Config.CycleTime(),
		Result:     res,
		GatedPower: cfg.Power.Evaluate(res, true),
		PlainPower: cfg.Power.Evaluate(res, false),
	}
	power.CheckGatedNotAbove(res.Config.Invariants, pt.GatedPower, pt.PlainPower)
}

// simulatePoint runs one uncached design point: on the memo entry's
// shared trace and its cell's model outcomes, or, without an entry, on
// models warmed from a fresh generator.
func simulatePoint(cfg StudyConfig, prof workload.Profile, mc pipeline.Config, ent *memoEntry, psp *span.Span) (*pipeline.Result, error) {
	if ent != nil {
		wsp := warmupSpan(psp, cfg.Warmup)
		out, err := ent.outcomes(&mc)
		wsp.End()
		if err != nil {
			return nil, err
		}
		ssp := psp.Child("simulate", span.Int("instructions", cfg.Instructions))
		defer ssp.End()
		return pipeline.RunReplayed(mc, out, ent.packed.Stream())
	}
	dsp := psp.Child("decode")
	gen, err := workload.NewGenerator(prof)
	dsp.End()
	if err != nil {
		return nil, err
	}
	models, err := pipeline.NewModels(&mc)
	if err != nil {
		return nil, err
	}
	wsp := warmupSpan(psp, cfg.Warmup)
	models.Warm(gen, cfg.Warmup)
	wsp.End()
	ssp := psp.Child("simulate", span.Int("instructions", cfg.Instructions))
	defer ssp.End()
	return pipeline.RunWith(mc, models, trace.NewLimitStream(gen, cfg.Instructions))
}

// warmupSpan opens a point's warm-up phase span: nil, a no-op, when
// there is no warm-up.
func warmupSpan(psp *span.Span, n int) *span.Span {
	if n == 0 {
		return nil
	}
	return psp.Child("warmup", span.Int("instructions", n))
}

// sweepKey builds the result-cache key fields a sweep shares at every
// depth: the power model's and the workload profile's fingerprints are
// rendered once per sweep, not once per point.
func sweepKey(cfg StudyConfig, prof workload.Profile) resultcache.Key {
	return resultcache.Key{
		PowerHash:    cfg.Power.Fingerprint(),
		WorkloadHash: telemetry.Fingerprint(fmt.Sprintf("%+v", prof)),
		Instructions: cfg.Instructions,
		Warmup:       cfg.Warmup,
	}
}

// cacheKey completes a sweep's key for one design point. The Config
// describes its models without holding them, so its fingerprint is the
// same cold or warm (the warm-up length is a key field of its own).
func cacheKey(sweep resultcache.Key, mc *pipeline.Config, depth int) resultcache.Key {
	sweep.ConfigHash = mc.Fingerprint()
	sweep.Depth = depth
	return sweep
}

// RunCatalog sweeps every profile concurrently (bounded by
// cfg.Parallelism) and returns the sweeps in input order.
func RunCatalog(cfg StudyConfig, profs []workload.Profile) ([]*Sweep, error) {
	cfg = cfg.withDefaults()
	if cfg.observed() {
		// One shared counter so per-workload sweeps report
		// catalog-wide done/total figures.
		cfg.startProgress(len(profs) * len(cfg.Depths))
	}
	ssp := cfg.startSpan("study",
		span.Int("workloads", len(profs)), span.Int("depths", len(cfg.Depths)))
	defer ssp.End()
	cfg.parentSpan = ssp
	sweeps := make([]*Sweep, len(profs))
	errs := make([]error, len(profs))
	sem := make(chan struct{}, cfg.Parallelism)
	var wg sync.WaitGroup
	for i := range profs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sweeps[i], errs[i] = RunSweep(cfg, profs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: workload %s: %w", profs[i].Name, err)
		}
	}
	return sweeps, nil
}

// Depths returns the sweep's depth axis as floats (for fitting).
func (s *Sweep) Depths() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = float64(p.Depth)
	}
	return out
}

// MetricCurve evaluates a figure of merit at each design point under
// the chosen gating discipline.
func (s *Sweep) MetricCurve(kind metrics.Kind, gated bool) []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		watts := p.PlainPower.Total()
		if gated {
			watts = p.GatedPower.Total()
		}
		out[i] = kind.Value(p.Result.BIPS(), watts)
	}
	return out
}

// PointAt returns the design point simulated at the given depth.
func (s *Sweep) PointAt(depth int) (DepthPoint, bool) {
	for _, p := range s.Points {
		if p.Depth == depth {
			return p, true
		}
	}
	return DepthPoint{}, false
}

// Optimum is a per-workload optimum design point determined by the
// paper's cubic least-squares analysis of the simulated metric curve.
type Optimum struct {
	Workload string
	Class    workload.Class
	Depth    float64 // cubic-fit peak position (stages)
	FO4      float64 // corresponding per-stage delay
	Interior bool    // false when the metric is monotone over the range
	R2       float64 // quality of the cubic fit (the paper "verifies
	// that the fit is a smooth curve through the data points")
}

// FindOptimum fits a cubic to the sweep's metric curve and locates its
// peak (paper §4: "a blind least squares fit to a cubic function").
func (s *Sweep) FindOptimum(kind metrics.Kind, gated bool) (Optimum, error) {
	curve := s.MetricCurve(kind, gated)
	depths := s.Depths()
	peak, interior, err := fit.CubicPeak(depths, curve)
	if err != nil {
		return Optimum{}, err
	}
	r2 := fitQuality(depths, curve)
	fo4 := 0.0
	if len(s.Points) > 0 {
		cfg := s.Points[0].Result.Config
		fo4 = cfg.TO + cfg.TP/peak
	}
	return Optimum{
		Workload: s.Workload.Name,
		Class:    s.Workload.Class,
		Depth:    peak,
		FO4:      fo4,
		Interior: interior,
		R2:       r2,
	}, nil
}

// fitQuality returns the R² of the cubic least-squares fit behind the
// peak analysis.
func fitQuality(depths, curve []float64) float64 {
	p, err := mathx.PolyFit(depths, curve, 3)
	if err != nil {
		return 0
	}
	yhat := make([]float64, len(depths))
	for i, d := range depths {
		yhat[i] = p.Eval(d)
	}
	return mathx.RSquared(curve, yhat)
}

// Extraction measures the theory parameters from the sweep's design
// point at refDepth (DefaultRefDepth if the exact depth is absent,
// the nearest simulated depth is used).
func (s *Sweep) Extraction(refDepth int) (fit.Extraction, error) {
	if len(s.Points) == 0 {
		return fit.Extraction{}, errors.New("core: empty sweep")
	}
	best := s.Points[0]
	for _, p := range s.Points[1:] {
		if abs(p.Depth-refDepth) < abs(best.Depth-refDepth) {
			best = p
		}
	}
	return fit.Extract(best.Result)
}

// TauCurve returns the measured time per instruction (FO4) at each
// design point.
func (s *Sweep) TauCurve() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Result.TimePerInstructionFO4()
	}
	return out
}

// CurveExtraction fits the performance model to the sweep's full τ(p)
// curve (fit.ExtractCurve), yielding the effective parameters that
// make the analytic model track this simulator.
func (s *Sweep) CurveExtraction(refDepth int) (fit.Extraction, error) {
	if len(s.Points) < 2 {
		return fit.Extraction{}, errors.New("core: curve extraction needs ≥2 depths")
	}
	best := s.Points[0]
	for _, p := range s.Points[1:] {
		if abs(p.Depth-refDepth) < abs(best.Depth-refDepth) {
			best = p
		}
	}
	return fit.ExtractCurve(s.Depths(), s.TauCurve(), best.Result)
}

// TheoryParams builds a theory parameter set for this sweep's
// workload: technology from the simulated machine, workload parameters
// extracted at refDepth, metric exponent m, and the gating model.
func (s *Sweep) TheoryParams(refDepth int, m float64, gated bool) (theory.Params, error) {
	ex, err := s.Extraction(refDepth)
	if err != nil {
		return theory.Params{}, err
	}
	return s.theoryFrom(ex, m, gated), nil
}

// FittedTheoryParams is TheoryParams with the workload parameters
// taken from the full-curve fit instead of a single run, and the
// latch-growth exponent β taken from the machine's own latch curve
// (the paper's Figure-3 "overall" exponent) rather than the per-unit
// value — the overall exponent is what multiplies total power in the
// analytic model.
func (s *Sweep) FittedTheoryParams(refDepth int, m float64, gated bool) (theory.Params, error) {
	ex, err := s.CurveExtraction(refDepth)
	if err != nil {
		return theory.Params{}, err
	}
	p := s.theoryFrom(ex, m, gated)
	if beta, err := s.OverallLatchBeta(); err == nil {
		p = p.WithBeta(beta)
	}
	return p, nil
}

// OverallLatchBeta fits the machine's total latch count to k·p^β over
// the sweep's unmerged depths (≥ 4) and returns the overall exponent
// (paper Fig. 3: ≈ 1.1 when units grow as stages^1.3).
func (s *Sweep) OverallLatchBeta() (float64, error) {
	var xs, ys []float64
	for _, pt := range s.Points {
		if pt.Depth >= 4 {
			xs = append(xs, float64(pt.Depth))
			ys = append(ys, pt.GatedPower.Latches)
		}
	}
	if len(xs) < 2 {
		return 0, errors.New("core: too few unmerged depths for latch fit")
	}
	_, beta, err := mathx.PowerLawFit(xs, ys)
	return beta, err
}

func (s *Sweep) theoryFrom(ex fit.Extraction, m float64, gated bool) theory.Params {
	p := theory.Default().WithMetricExponent(m)
	if len(s.Points) > 0 {
		cfg := s.Points[0].Result.Config
		p.TP, p.TO = cfg.TP, cfg.TO
	}
	if gated {
		p = p.WithClockGating(1).WithLeakageFraction(
			theory.DefaultLeakageFraction, theory.DefaultLeakageRefDepth)
	}
	return ex.Apply(p)
}

// Histogram bins optima by integer stage count over [lo, hi], the
// presentation of the paper's Figures 6 and 7.
func Histogram(opt []Optimum, lo, hi int) []int {
	depths := make([]float64, len(opt))
	for i, o := range opt {
		depths[i] = o.Depth
	}
	return mathx.Histogram(depths, lo, hi)
}

// ByClass partitions optima by workload class.
func ByClass(opt []Optimum) map[workload.Class][]Optimum {
	out := make(map[workload.Class][]Optimum)
	for _, o := range opt {
		out[o.Class] = append(out[o.Class], o)
	}
	return out
}

// MeanDepth returns the mean optimum depth.
func MeanDepth(opt []Optimum) float64 {
	depths := make([]float64, len(opt))
	for i, o := range opt {
		depths[i] = o.Depth
	}
	return mathx.Mean(depths)
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
