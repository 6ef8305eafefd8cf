package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/resultcache"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Per-pass sizes of the catalog workloads.
const (
	// Set-ups (profiles built and validated, cache directory made and
	// the cache opened, or the observers built) run before the timed
	// window in blocks of setupsPerBlock, each block timed as one
	// interval so that a single slow syscall or preemption is spread
	// over many set-ups; a pass reports the mean set-up time of each
	// block, and a run the median of those.
	setupBlocks    = 7
	setupsPerBlock = 8
	// observedRepeatStep spaces the single-workload repeat studies that
	// follow the catalog study when repeats re-simulate: every sixth
	// catalog workload (10 studies), the same set for every seed so the
	// mix of classes never changes. With a result cache every catalog
	// workload is repeated (each is a few milliseconds of cache reads).
	observedRepeatStep = 6
	crossCheckN        = 6 // points re-simulated on the per-cycle engine
)

// catalogSetup is everything a catalog pass builds before its timed
// window.
type catalogSetup struct {
	dir   string
	profs []workload.Profile
	cfg   core.StudyConfig
	rec   *invariant.Recorder
}

// catalogProfiles is the 55-workload catalog with every generator seed
// derived from the benchmark seed.
func catalogProfiles(seed uint64) ([]workload.Profile, error) {
	profs := workload.All()
	r := newRNG(seed, streamProfileSeed)
	for i := range profs {
		profs[i].Seed = r.next()
		if err := profs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return profs, nil
}

func setupCatalog(o passOpts) (*catalogSetup, error) {
	profs, err := catalogProfiles(o.seed)
	if err != nil {
		return nil, err
	}
	s := &catalogSetup{profs: profs, cfg: core.StudyConfig{Parallelism: o.parallelism}}
	if o.workload == "catalog-observed" {
		reg := telemetry.NewRegistry()
		s.rec = invariant.New(reg)
		s.cfg.Metrics, s.cfg.Invariants = reg, s.rec
		return s, nil
	}
	s.dir, err = os.MkdirTemp(o.tmp, "resultcache-")
	if err != nil {
		return nil, err
	}
	s.cfg.Cache, err = resultcache.Open(resultcache.Options{Dir: s.dir})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// fitResult is the output of the paper's per-sweep analysis.
type fitResult struct {
	opts   []core.Optimum // BIPS³/W gated cubic-fit optimum per sweep
	theory []float64      // fitted-theory BIPS³/W gated optimum depth per sweep
	check  tally
}

// fitSweeps runs the paper's analysis on every sweep: the cubic-fit
// optimum of BIPS^m/W for m = 1..3 under both gating disciplines, the
// full-curve parameter extraction, and the fitted theory's optimum.
func fitSweeps(sweeps []*core.Sweep) fitResult {
	var f fitResult
	kinds := []metrics.Kind{metrics.BIPSPerWatt, metrics.BIPS2PerWatt, metrics.BIPS3PerWatt}
	for _, sw := range sweeps {
		for _, k := range kinds {
			for _, gated := range []bool{true, false} {
				o, err := sw.FindOptimum(k, gated)
				f.check.note(err)
				if err == nil && k == metrics.BIPS3PerWatt && gated {
					f.opts = append(f.opts, o)
				}
			}
		}
		_, err := sw.CurveExtraction(core.DefaultRefDepth)
		f.check.note(err)
		for _, gated := range []bool{true, false} {
			p, err := sw.FittedTheoryParams(core.DefaultRefDepth, 3, gated)
			f.check.note(err)
			if err != nil {
				continue
			}
			if opt := p.OptimumExact(); gated {
				f.theory = append(f.theory, opt.Depth)
			}
		}
	}
	return f
}

// runCatalogPass runs one catalog pass in this (fresh) process: the
// full catalog study over a cold memo, the paper's fits, then a series
// of single-workload repeat studies of workloads the process has
// already simulated.
func runCatalogPass(o passOpts) (passResult, error) {
	var res passResult
	var st *catalogSetup
	for b := 0; b < setupBlocks; b++ {
		// Start every block from a collected heap and a flushed file
		// system, so that no block pays for garbage or writeback an
		// earlier one (or the previous pass) left. Set-ups are not
		// removed here: the run removes its directory when it ends.
		runtime.GC()
		syscall.Sync()
		t := time.Now()
		for i := 0; i < setupsPerBlock; i++ {
			var err error
			if st, err = setupCatalog(o); err != nil {
				return res, err
			}
		}
		res.SetupS = append(res.SetupS, time.Since(t).Seconds()/setupsPerBlock)
	}
	if o.setupOnly {
		return res, nil
	}

	cfg := st.cfg
	var clk clock
	if o.traced {
		cfg.Spans, clk = newTracedClock(nil, 0)
	}
	var windows, timers []interval

	alloc0 := totalAllocMB()
	t0 := time.Now()
	sweeps, err := core.RunCatalog(cfg, st.profs)
	if err != nil {
		return res, err
	}
	tf := time.Now()
	fits := fitSweeps(sweeps)
	t1 := time.Now()
	alloc1 := totalAllocMB()
	windows = append(windows, clk.interval(t0, t1))
	timers = append(timers, clk.interval(tf, t1))
	fitS := t1.Sub(tf).Seconds()
	res.FreshWallS = t1.Sub(t0).Seconds()
	res.FreshMS = []float64{res.FreshWallS * 1e3}
	res.FreshPoints = len(st.profs) * len(core.DefaultDepths())
	res.Points, res.Studies = res.FreshPoints, 1
	res.WallS = res.FreshWallS

	// Correctness, outside the timed window. The checks run before the
	// repeats so the fresh results can be released: repeats then run
	// over the heap the process retains between studies (memo, cache
	// front), not one inflated by the benchmark holding 1320 results.
	res.Check.add(checkSweeps(sweeps, core.DefaultInstructions))
	res.Check.add(fits.check)
	res.Check.add(crossCheckSample(make([]core.StudyConfig, len(sweeps)), sweeps, o.seed, crossCheckN))
	res.Digest = digest(sweeps)
	res.Sim = simStatsOf(sweeps, fits.opts, fits.theory)
	want := make([][]byte, len(sweeps))
	for i, sw := range sweeps {
		want[i] = sweepBytes(sw)
	}
	sweeps = nil
	runtime.GC()

	// Repeats: a cache-backed study reopens the directory, as a second
	// invocation of the same study would, so hits come from disk.
	rcfg := cfg
	if rcfg.Cache != nil {
		if rcfg.Cache, err = resultcache.Open(resultcache.Options{Dir: st.dir}); err != nil {
			return res, err
		}
	}
	step := 1
	if rcfg.Cache == nil {
		step = observedRepeatStep
	}
	for i := 0; i < len(st.profs); i += step {
		t := time.Now()
		rs, err := core.RunCatalog(rcfg, st.profs[i:i+1])
		if err != nil {
			return res, err
		}
		tf := time.Now()
		rf := fitSweeps(rs)
		e := time.Now()
		windows = append(windows, clk.interval(t, e))
		timers = append(timers, clk.interval(tf, e))
		fitS += e.Sub(tf).Seconds()
		res.RepeatMS = append(res.RepeatMS, e.Sub(t).Seconds()*1e3)
		res.WallS += e.Sub(t).Seconds()
		res.Points += len(rs[0].Points)
		res.Studies++
		res.Check.add(rf.check)
		if bytes.Equal(sweepBytes(rs[0]), want[i]) {
			res.Check.note(nil)
		} else {
			res.Check.note(fmt.Errorf("repeat study of %s differs from the first study", st.profs[i].Name))
		}
	}
	res.RSSMB = peakRSSMB()
	// What the process retains between studies: the memo, the cache's
	// memory front, the runtime.
	res.HeapMB = heapRetainedMB()

	layers := map[string]float64{
		"alloc_mb_per_point": (alloc1 - alloc0) / float64(res.FreshPoints),
		"fit_s":              fitS,
	}
	if st.rec != nil {
		v := st.rec.Count()
		layers["violations"] = float64(v)
		res.Check.note(nil)
		if v > 0 {
			res.Check.Failed += int(v)
			res.Check.Failures = append(res.Check.Failures, fmt.Sprintf("%d invariant violations, first: %s", v, st.rec.Violations()[0]))
		}
	}
	if c := rcfg.Cache; c != nil {
		w, r := cfg.Cache.Stats(), c.Stats()
		gets := w.Hits + w.Misses + r.Hits + r.Misses
		layers["hit_ratio"] = float64(w.Hits+r.Hits) / float64(gets)
		layers["stores"] = float64(w.Stores + r.Stores)
		layers["cache_errors"] = float64(w.Errors + r.Errors + w.Corrupt + r.Corrupt)
	}
	if o.traced {
		sl := analyzeSpans(cfg.Spans)
		sl.flatten(layers)
		var window int64
		for _, w := range windows {
			window += w.End - w.Start
		}
		covered := coverage(windows, append(sl.covered, timers...))
		layers["unattributed_frac"] = 1 - float64(covered)/float64(window)
	}
	res.Layers = layers
	return res, nil
}
