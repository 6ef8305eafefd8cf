package difftest

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/resultcache"
	"repro/internal/theory"
	"repro/internal/workload"
)

// Rule identifiers for the theory-side laws checked here (the
// pipeline/* and power/* families are declared next to their engines).
const (
	RuleFrequencyMonotone = "theory/frequency_monotone"
	RuleTauConvex         = "theory/tau_convex"
	RuleResidualEnvelope  = "theory/residual_envelope"
)

// Residual envelopes pinned per workload class. The harness asserts
// (a) the BIPS³/W optimum depth located by the cubic fit over the
// simulated sweep and the analytic model's exact optimum agree within
// OptimumDepthTolerance stages, and (b) the normalized theory BIPS
// curve tracks the normalized simulated curve within BIPSEnvelope
// (max |relative residual| over the swept depths). Values were
// calibrated on the default matrix (defaultDepths × 8k instructions)
// with ~2× headroom over the observed residuals; a regression that
// pushes theory and simulation apart lands outside them.
var (
	OptimumDepthTolerance = map[workload.Class]float64{
		workload.Legacy:  3.0,
		workload.Modern:  3.0,
		workload.SPECInt: 3.0,
		workload.SPECFP:  4.5,
	}
	BIPSEnvelope = map[workload.Class]float64{
		workload.Legacy:  0.25,
		workload.Modern:  0.25,
		workload.SPECInt: 0.25,
		workload.SPECFP:  0.30,
	}
)

// checkResultLaws re-verifies every result-level invariant over a
// sweep's finished points — the same laws pipeline.Run checked in-sim,
// but applied from outside so they also hold for restored or decoded
// results, plus the power sanity laws across both gating disciplines.
// This is also the injection site for the result-mutation classes.
func checkResultLaws(opts Options, sw *core.Sweep) Check {
	rec := invariant.New(opts.Metrics)
	for i := range sw.Points {
		pt := &sw.Points[i]
		res := pt.Result
		gated, plain := pt.GatedPower, pt.PlainPower
		if i == 0 {
			res, gated, plain = opts.Mutate.applyResult(res, gated, plain)
		}
		pipeline.CheckResultInvariants(rec, res)
		power.CheckBreakdown(rec, gated)
		power.CheckBreakdown(rec, plain)
		power.CheckGatedNotAbove(rec, gated, plain)
	}
	c := Check{
		Name:     "invariants/results",
		Workload: sw.Workload.Name,
		Passed:   rec.OK(),
		Detail:   fmt.Sprintf("%d points × (conservation + power sanity)", len(sw.Points)),
	}
	if !c.Passed {
		c.Detail = firstViolation(rec)
	}
	return c
}

// checkCodecRoundTrip asserts the ResultData codec is lossless: for
// every point, Data → Restore → Data is bit-identical, and the JSON
// encoding round-trips to the same payload (the cache and any
// downstream tooling read results through both paths).
func checkCodecRoundTrip(opts Options, sw *core.Sweep) Check {
	c := Check{
		Name:     "differential/codec",
		Workload: sw.Workload.Name,
		Passed:   true,
		Detail:   fmt.Sprintf("%d points round-tripped", len(sw.Points)),
	}
	for i := range sw.Points {
		pt := &sw.Points[i]
		data := pt.Result.Data()
		restored := data.Restore(pt.Result.Config).Data()
		if i == 0 {
			restored = opts.Mutate.applyCodec(restored)
		}
		if !reflect.DeepEqual(data, restored) {
			c.Passed = false
			c.Detail = fmt.Sprintf("depth %d: Data→Restore→Data diverged", pt.Depth)
			return c
		}
		raw, err := json.Marshal(data)
		if err != nil {
			c.Passed = false
			c.Detail = fmt.Sprintf("depth %d: encode: %v", pt.Depth, err)
			return c
		}
		var back pipeline.ResultData
		if err := json.Unmarshal(raw, &back); err != nil {
			c.Passed = false
			c.Detail = fmt.Sprintf("depth %d: decode: %v", pt.Depth, err)
			return c
		}
		if !reflect.DeepEqual(data, back) {
			c.Passed = false
			c.Detail = fmt.Sprintf("depth %d: JSON round-trip diverged", pt.Depth)
			return c
		}
	}
	return c
}

// checkSeedDeterminism reruns the whole catalog from the same seeds
// and asserts the repeat is bit-identical to the baseline.
func checkSeedDeterminism(opts Options, rec *invariant.Recorder, rep *Report, base []*core.Sweep) error {
	repeat, err := core.RunCatalog(opts.study(rec), opts.Profiles)
	if err != nil {
		return fmt.Errorf("difftest: determinism catalog: %w", err)
	}
	applySweepMutation(opts.Mutate, MutSeedDrift, repeat)
	for i, sw := range base {
		detail, same := equalSweeps(sw, repeat[i])
		rep.add(Check{
			Name:     "differential/seed",
			Workload: sw.Workload.Name,
			Passed:   same,
			Detail:   detail,
		})
	}
	return nil
}

// checkParallelism reruns the catalog fully serialized
// (Parallelism=1) and asserts bit-equality with the baseline run at
// opts.Parallelism — scheduling must not be observable.
func checkParallelism(opts Options, rec *invariant.Recorder, rep *Report, base []*core.Sweep) error {
	serialOpts := opts
	serialOpts.Parallelism = 1
	serial, err := core.RunCatalog(serialOpts.study(rec), opts.Profiles)
	if err != nil {
		return fmt.Errorf("difftest: serial catalog: %w", err)
	}
	applySweepMutation(opts.Mutate, MutParallelDrift, serial)
	for i, sw := range base {
		detail, same := equalSweeps(sw, serial[i])
		rep.add(Check{
			Name:     "differential/parallel",
			Workload: sw.Workload.Name,
			Passed:   same,
			Detail:   fmt.Sprintf("parallelism %d vs 1: %s", opts.Parallelism, detail),
		})
	}
	return nil
}

// checkCacheDifferential runs the catalog three times against a
// disk-backed result cache — a cold pass that populates a fresh
// directory, a warm pass served from the same cache, and a pass through
// the directory reopened, served from its entry files — and asserts all
// three are bit-identical to the cache-less baseline.
func checkCacheDifferential(opts Options, rec *invariant.Recorder, rep *Report, base []*core.Sweep) error {
	dir, err := os.MkdirTemp("", "difftest-cache-")
	if err != nil {
		return fmt.Errorf("difftest: cache dir: %w", err)
	}
	defer os.RemoveAll(dir)
	open := func() (*resultcache.Cache, error) {
		c, err := resultcache.Open(resultcache.Options{Dir: dir, Metrics: opts.Metrics})
		if err != nil {
			return nil, fmt.Errorf("difftest: open cache: %w", err)
		}
		return c, nil
	}
	run := func(c *resultcache.Cache, pass string) ([]*core.Sweep, error) {
		cfg := opts.study(rec)
		cfg.Cache = c
		sweeps, err := core.RunCatalog(cfg, opts.Profiles)
		if err != nil {
			return nil, fmt.Errorf("difftest: %s-cache catalog: %w", pass, err)
		}
		return sweeps, nil
	}
	cache, err := open()
	if err != nil {
		return err
	}
	cold, err := run(cache, "cold")
	if err != nil {
		return err
	}
	warm, err := run(cache, "warm")
	if err != nil {
		return err
	}
	reopened, err := open()
	if err != nil {
		return err
	}
	disk, err := run(reopened, "reopened")
	if err != nil {
		return err
	}
	applySweepMutation(opts.Mutate, MutCacheDrift, disk)
	// A point the reopened cache missed was simulated, not decoded.
	diskMisses := reopened.Stats().Misses
	for i, sw := range base {
		detail, same := "cold populate, warm replay and reopened-disk replay all bit-identical", true
		for _, leg := range []struct {
			name   string
			sweeps []*core.Sweep
		}{{"cold", cold}, {"warm", warm}, {"disk", disk}} {
			if d, ok := equalSweeps(sw, leg.sweeps[i]); !ok {
				detail, same = leg.name+": "+d, false
				break
			}
		}
		if same && diskMisses > 0 {
			detail, same = fmt.Sprintf("disk: %d points missed the reopened cache", diskMisses), false
		}
		rep.add(Check{
			Name:     "differential/cache",
			Workload: sw.Workload.Name,
			Passed:   same,
			Detail:   detail,
		})
	}
	return nil
}

// checkTheory verifies the analytic model against one sweep: shape
// laws on the fitted parameters (frequency strictly rising with
// depth, τ(p) convex over the swept range) and the residual envelopes
// (normalized BIPS curve agreement; BIPS³/W optimum depth within the
// class tolerance).
func checkTheory(opts Options, sw *core.Sweep) ([]Check, Check, error) {
	const exponent = 3 // BIPS³/W, the paper's headline metric
	params, err := sw.FittedTheoryParams(opts.RefDepth, exponent, true)
	if err != nil {
		return nil, Check{}, fmt.Errorf("difftest: theory params for %s: %w", sw.Workload.Name, err)
	}
	if err := params.Validate(); err != nil {
		return nil, Check{}, fmt.Errorf("difftest: fitted params invalid for %s: %w", sw.Workload.Name, err)
	}

	depths := sw.Depths()
	freq := make([]float64, len(depths))
	tau := make([]float64, len(depths))
	for i, d := range depths {
		freq[i] = params.Frequency(d)
		tau[i] = params.TimePerInstruction(d)
	}
	opts.Mutate.applyTheoryCurves(freq, tau)

	shape := make([]Check, 0, 2)
	rec := invariant.New(opts.Metrics)
	ok := invariant.Monotone(rec, RuleFrequencyMonotone, depths, freq, true, 0)
	shape = append(shape, Check{
		Name: "theory/frequency", Workload: sw.Workload.Name, Passed: ok,
		Detail: shapeDetail(rec, "f(p) strictly increasing over swept depths"),
	})
	rec = invariant.New(opts.Metrics)
	ok = invariant.Convex(rec, RuleTauConvex, depths, tau, 1e-9)
	shape = append(shape, Check{
		Name: "theory/convexity", Workload: sw.Workload.Name, Passed: ok,
		Detail: shapeDetail(rec, "τ(p) convex over swept depths"),
	})

	residual, err := residualCheck(opts, sw, params)
	if err != nil {
		return nil, Check{}, err
	}
	return shape, residual, nil
}

// residualCheck compares the sweep's measurements to the analytic
// model inside the pinned per-class envelopes.
func residualCheck(opts Options, sw *core.Sweep, params theory.Params) (Check, error) {
	class := sw.Workload.Class
	rec := invariant.New(opts.Metrics)

	// Optimum-depth agreement on the headline metric.
	simOpt, err := sw.FindOptimum(metrics.BIPS3PerWatt, true)
	if err != nil {
		return Check{}, fmt.Errorf("difftest: sim optimum for %s: %w", sw.Workload.Name, err)
	}
	thOpt := params.OptimumExact()
	theoryDepth := opts.Mutate.applyTheoryOptimum(thOpt.Depth)
	dTol := OptimumDepthTolerance[class]
	if diff := abs(simOpt.Depth - theoryDepth); diff > dTol {
		rec.Violatef(RuleResidualEnvelope,
			"BIPS³/W optimum depth: sim %.2f vs theory %.2f (Δ=%.2f > %.2f, class %s)",
			simOpt.Depth, theoryDepth, diff, dTol, class)
	}

	// Normalized BIPS curve agreement. Both curves are normalized at
	// the reference-nearest depth, mirroring the paper's normalized
	// figures, so only shape disagreements count.
	depths := sw.Depths()
	sim := make([]float64, len(depths))
	for i, pt := range sw.Points {
		sim[i] = pt.Result.BIPS()
	}
	th := make([]float64, len(depths))
	for i, d := range depths {
		th[i] = params.BIPS(d)
	}
	ref := nearestIndex(depths, float64(opts.RefDepth))
	bTol := BIPSEnvelope[class]
	if sim[ref] > 0 && th[ref] > 0 {
		for i := range depths {
			r := abs(sim[i]/sim[ref] - th[i]/th[ref])
			if r > bTol {
				rec.Violatef(RuleResidualEnvelope,
					"normalized BIPS at p=%g: sim %.4f vs theory %.4f (|Δ|=%.4f > %.3f, class %s)",
					depths[i], sim[i]/sim[ref], th[i]/th[ref], r, bTol, class)
			}
		}
	} else {
		rec.Violatef(RuleResidualEnvelope, "degenerate reference point: sim %g, theory %g", sim[ref], th[ref])
	}

	c := Check{
		Name:     "theory/residual",
		Workload: sw.Workload.Name,
		Passed:   rec.OK(),
		Detail: fmt.Sprintf("optimum Δ=%.2f stages (tol %.1f), class %s",
			abs(simOpt.Depth-theoryDepth), dTol, class),
	}
	if !c.Passed {
		c.Detail = firstViolation(rec)
	}
	return c, nil
}

// equalSweeps compares two sweeps of the same workload bit-for-bit:
// every point's depth, cycle time, full measurement payload and both
// power breakdowns must be identical — not epsilon-close. It returns
// a human-readable mismatch description and the verdict.
func equalSweeps(a, b *core.Sweep) (string, bool) {
	if len(a.Points) != len(b.Points) {
		return fmt.Sprintf("point counts differ: %d vs %d", len(a.Points), len(b.Points)), false
	}
	for i := range a.Points {
		pa, pb := &a.Points[i], &b.Points[i]
		if pa.Depth != pb.Depth {
			return fmt.Sprintf("depth axis differs at %d: %d vs %d", i, pa.Depth, pb.Depth), false
		}
		if pa.FO4 != pb.FO4 {
			return fmt.Sprintf("depth %d: FO4 %v vs %v", pa.Depth, pa.FO4, pb.FO4), false
		}
		if !reflect.DeepEqual(pa.Result.Data(), pb.Result.Data()) {
			return fmt.Sprintf("depth %d: measurement payloads differ", pa.Depth), false
		}
		if pa.GatedPower != pb.GatedPower {
			return fmt.Sprintf("depth %d: gated power differs", pa.Depth), false
		}
		if pa.PlainPower != pb.PlainPower {
			return fmt.Sprintf("depth %d: plain power differs", pa.Depth), false
		}
	}
	return fmt.Sprintf("%d points bit-identical", len(a.Points)), true
}

func firstViolation(rec *invariant.Recorder) string {
	vs := rec.Violations()
	if len(vs) == 0 {
		return ""
	}
	return fmt.Sprintf("%d violations, first: %s", rec.Count(), vs[0].String())
}

func shapeDetail(rec *invariant.Recorder, ok string) string {
	if rec.OK() {
		return ok
	}
	return firstViolation(rec)
}

func nearestIndex(xs []float64, x float64) int {
	best := 0
	for i := range xs {
		if abs(xs[i]-x) < abs(xs[best]-x) {
			best = i
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
