// Command sweep simulates one workload across a range of pipeline
// depths and prints the full design-space table: performance, power
// under both gating disciplines, every BIPS^m/W metric, and the
// cubic-fit optima — one workload's worth of the paper's evaluation.
//
// Usage:
//
//	sweep -workload si95-gcc
//	sweep -workload sf-swim -min 2 -max 30 -n 50000
//
// Caching:
//
//	sweep -cache-dir ~/.cache/repro        # memoize design points on disk
//	sweep -cache-dir d -cache-readonly     # reuse but never write
//	sweep -cache-dir d -cache-clear        # drop stale entries first
//
// Observability:
//
//	sweep -metrics-out metrics.jsonl         # aggregated counters + manifest
//	sweep -trace out.json -trace-depth 10    # Chrome trace of one depth's run
//	sweep -pprof localhost:6060              # /debug/pprof, /debug/vars,
//	                                         # /metrics (Prometheus),
//	                                         # /progress (SSE), /dash (live UI)
//	sweep -pprof :0 -linger 30s              # keep the server up after the
//	                                         # sweep so scrapers can collect
//	sweep -log-level debug -log-format json  # structured diagnostics
//	sweep -profile-dir prof/                 # CPU/heap/allocs pprof capture and
//	                                         # hierarchical span trace
//	                                         # (spans.jsonl + Chrome view)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logx"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/resultcache"
	"repro/internal/serve/spec"
	"repro/internal/telemetry"
	"repro/internal/telemetry/promexp"
	"repro/internal/telemetry/span"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// dashUnits renders one point's clock-gated per-unit attribution for
// the dashboard heatmap (pipeline unit order, merged groups under
// their leader).
func dashUnits(pt core.DepthPoint) []telemetry.UnitPower {
	out := make([]telemetry.UnitPower, 0, pipeline.NumUnits)
	for u := 0; u < pipeline.NumUnits; u++ {
		if pt.GatedPower.PerUnit[u] == 0 {
			continue
		}
		out = append(out, telemetry.UnitPower{
			Unit:    pipeline.Unit(u).String(),
			Power:   pt.GatedPower.PerUnit[u],
			Dynamic: pt.GatedPower.PerUnitDynamic[u],
		})
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "si95-gcc", "catalog workload name")
		minDepth = fs.Int("min", 2, "minimum depth")
		maxDepth = fs.Int("max", 25, "maximum depth")
		n        = fs.Int("n", 30000, "instructions per run")
		warm     = fs.Int("warmup", 30000, "warm-up instructions (-1 for none)")
		ooo      = fs.Bool("ooo", false, "out-of-order execution with register renaming")
		mach     = fs.String("machine", "zseries", "machine preset: zseries|zseries-ooo|narrow|wide")

		cacheDir   = fs.String("cache-dir", "", "directory for the on-disk result cache (empty = no caching)")
		cacheRO    = fs.Bool("cache-readonly", false, "read cached results but never write new ones")
		cacheClear = fs.Bool("cache-clear", false, "drop all cached results before running")

		tracePath  = fs.String("trace", "", "write a Chrome trace_event file of the -trace-depth run to this file")
		traceDepth = fs.Int("trace-depth", core.DefaultRefDepth, "pipeline depth whose run the -trace file records")
		metricsOut = fs.String("metrics-out", "", "write a JSONL metrics dump (manifest + counters aggregated over the sweep) to this file")
		pprofAddr  = fs.String("pprof", "", "serve /debug/pprof, /debug/vars, /metrics, /progress and /dash on this address (e.g. localhost:6060)")
		linger     = fs.Duration("linger", 0, "keep the -pprof server alive this long after the sweep finishes (for scrapers)")
		profileDir = fs.String("profile-dir", "", "capture CPU/heap/allocs pprof profiles and a span trace (spans.jsonl + spans_trace.json) into this directory")
	)
	logOpts := logx.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log, err := logOpts.Logger(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 2
	}

	fail := func(err error) int {
		log.Error("sweep failed", "err", err)
		return 1
	}

	var reg *telemetry.Registry
	if *metricsOut != "" || *pprofAddr != "" || *profileDir != "" {
		reg = telemetry.NewRegistry()
		reg.PublishExpvar("repro_metrics")
	}

	// -profile-dir turns on both cost-attribution layers at once: the
	// pprof capture (where did the CPU go, by function) and the span
	// tracer (where did the wall time go, by study phase).
	var spans *span.Tracer
	var capture *profile.Capture
	if *profileDir != "" {
		spans = span.NewTracer(reg, 0)
		capture, err = profile.Start(*profileDir)
		if err != nil {
			return fail(err)
		}
	}

	var (
		dbg    *telemetry.DebugServer
		broker *telemetry.Broker
	)
	if *pprofAddr != "" {
		dbg, err = telemetry.ServeDebug(*pprofAddr)
		if err != nil {
			return fail(err)
		}
		defer dbg.Close()
		broker = telemetry.NewBroker(0)
		defer broker.Close()
		dbg.Handle("/metrics", promexp.Handler(reg))
		dbg.Handle("/progress", broker)
		dbg.Handle("/dash", telemetry.DashHandler())
		log.Info("debug server up",
			"pprof", "http://"+dbg.Addr()+"/debug/pprof/",
			"metrics", "http://"+dbg.Addr()+"/metrics",
			"dash", "http://"+dbg.Addr()+"/dash")
	}

	// The CLI flags compile to the same study spec depthd serves, so
	// validation (depth bounds, workload membership, machine presets)
	// has one home for every front end.
	sp := spec.Spec{
		Workloads:    []string{*name},
		MinDepth:     *minDepth,
		MaxDepth:     *maxDepth,
		Instructions: *n,
		Warmup:       *warm,
		Machine:      *mach,
		OutOfOrder:   *ooo,
	}
	if err := sp.Validate(spec.DefaultLimits()); err != nil {
		return fail(err)
	}
	sp = sp.Normalize()
	profs, err := sp.Profiles()
	if err != nil {
		return fail(err)
	}
	prof := profs[0]
	depths := sp.Depths

	var tracer *telemetry.Tracer
	if *tracePath != "" {
		tracer = pipeline.NewTracer(0)
	}

	cache, err := resultcache.OpenDir(*cacheDir, *cacheRO, *cacheClear, reg)
	if err != nil {
		return fail(err)
	}

	start := time.Now()
	cfg := core.StudyConfig{Depths: depths, Instructions: sp.Instructions, Warmup: sp.Warmup, Cache: cache, Metrics: reg, Spans: spans}
	var liveHits atomic.Int64
	if broker != nil {
		_ = broker.Publish(telemetry.DashEvent{
			Kind: "start", Workload: prof.Name, Class: prof.Class.String(),
			Total: len(depths),
		})
		cfg.Progress = func(p core.Progress) {
			if p.CacheHit {
				liveHits.Add(1)
			}
			elapsed := time.Since(start).Seconds()
			rate := 0.0
			if elapsed > 0 {
				rate = float64(p.Done) / elapsed
			}
			eta := 0.0
			if rate > 0 {
				eta = float64(p.Total-p.Done) / rate
			}
			bips := p.Point.Result.BIPS()
			_ = broker.Publish(telemetry.DashEvent{
				Kind:         "point",
				Workload:     p.Workload,
				Class:        p.Class.String(),
				Depth:        p.Depth,
				Done:         p.Done,
				Total:        p.Total,
				CacheHit:     p.CacheHit,
				BIPS:         bips,
				Metric:       metrics.BIPS3PerWatt.Value(bips, p.Point.GatedPower.Total()),
				MetricPlain:  metrics.BIPS3PerWatt.Value(bips, p.Point.PlainPower.Total()),
				ETASec:       eta,
				PointsPerSec: rate,
				CacheHits:    int(liveHits.Load()),
				Units:        dashUnits(p.Point),
			})
		}
	}
	machine := sp.MachineFunc()
	cfg.Machine = func(d int) (pipeline.Config, error) {
		mc, err := machine(d)
		if err != nil {
			return mc, err
		}
		// One depth of the sweep can carry the event tracer; attaching
		// it to every depth would interleave runs in a single ring.
		if tracer != nil && d == *traceDepth {
			mc.Tracer = tracer
		}
		return mc, nil
	}
	s, err := core.RunSweep(cfg, prof)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "workload %s (%s), %d instructions/run\n\n", prof.Name, prof.Class, *n)
	fmt.Fprintf(stdout, "%5s %6s %7s %9s %10s %10s %12s %12s\n",
		"depth", "FO4", "IPC", "BIPS", "W(gated)", "W(plain)", "BIPS^3/W g", "BIPS^3/W n")
	for _, p := range s.Points {
		bips := p.Result.BIPS()
		fmt.Fprintf(stdout, "%5d %6.2f %7.3f %9.5f %10.4g %10.4g %12.4g %12.4g\n",
			p.Depth, p.FO4, p.Result.IPC(), bips,
			p.GatedPower.Total(), p.PlainPower.Total(),
			metrics.BIPS3PerWatt.Value(bips, p.GatedPower.Total()),
			metrics.BIPS3PerWatt.Value(bips, p.PlainPower.Total()))
	}

	// Cubic-fit and analytic-model failures are counted, not fatal: a
	// monotone metric curve still prints its design-space table. The
	// count feeds sweep.fit_errors and the end-of-run summary.
	fitErrors := 0
	noteFitError := func(what string, err error, attrs ...any) {
		fitErrors++
		if reg != nil {
			reg.Counter("sweep.fit_errors").Inc()
		}
		log.Warn(what, append(attrs, "err", err)...)
	}

	// The fit phase runs outside RunSweep, so it carries its own span.
	fitSpan := spans.Start("fit", span.String("workload", prof.Name))

	fmt.Fprintln(stdout)
	for _, k := range metrics.Kinds {
		for _, gated := range []bool{true, false} {
			o, err := s.FindOptimum(k, gated)
			if err != nil {
				noteFitError("optimum fit failed", err, "metric", k.String(), "gated", gated)
				continue
			}
			mode := "non-gated"
			if gated {
				mode = "gated"
			}
			pos := "interior"
			if !o.Interior {
				pos = "edge"
			}
			fmt.Fprintf(stdout, "optimum %-9s %-9s: %5.1f stages (%5.1f FO4, %s)\n",
				k, mode, o.Depth, o.FO4, pos)
		}
	}

	if ex, err := s.CurveExtraction(core.DefaultRefDepth); err == nil {
		fmt.Fprintf(stdout, "\ncurve-fitted parameters: %s\n", ex)
	} else {
		noteFitError("curve extraction failed", err)
	}
	if tp, err := s.FittedTheoryParams(core.DefaultRefDepth, 3, true); err == nil {
		o := tp.OptimumExact()
		fmt.Fprintf(stdout, "analytic BIPS^3/W optimum (clock gated): %.1f stages (%.1f FO4)\n", o.Depth, o.FO4)
	} else {
		noteFitError("theory fit failed", err)
	}
	fitSpan.End()

	// One manifest describes the whole sweep; the per-depth config hash
	// is taken from the traced (or nearest-to-reference) point.
	man := telemetry.NewManifest("sweep")
	man.SetParam("workload", prof.Name)
	man.SetParam("seed", fmt.Sprintf("%#x", prof.Seed))
	man.SetParam("instructions", strconv.Itoa(*n))
	man.SetParam("depth_min", strconv.Itoa(*minDepth))
	man.SetParam("depth_max", strconv.Itoa(*maxDepth))
	man.SetParam("machine", *mach)
	if p, ok := s.PointAt(*traceDepth); ok {
		man.ConfigHash = p.Result.Config.Fingerprint()
	} else if len(s.Points) > 0 {
		man.ConfigHash = s.Points[0].Result.Config.Fingerprint()
	}
	man.Finish(start)

	if *profileDir != "" {
		// Stop the capture before exporting: the exports themselves are
		// bookkeeping, not sweep cost, and Stop writes the heap/allocs
		// snapshots into the directory.
		if err := capture.Stop(); err != nil {
			return fail(err)
		}
		if err := writeTo(filepath.Join(*profileDir, "spans.jsonl"), func(f *os.File) error {
			return spans.WriteJSONL(f, &man)
		}); err != nil {
			return fail(err)
		}
		if err := writeTo(filepath.Join(*profileDir, "spans_trace.json"), func(f *os.File) error {
			return spans.WriteChromeTrace(f, &man)
		}); err != nil {
			return fail(err)
		}
		log.Info("wrote profiles", "dir", *profileDir,
			"spans", spans.Len(), "spans_dropped", spans.Dropped())
	}

	if reg != nil {
		// Per-run pipeline counters and per-unit attribution were
		// published point-by-point by core as the sweep progressed;
		// only whole-sweep figures are added here.
		reg.Gauge("sweep.depth_points").Set(float64(len(s.Points)))
		if p, ok := s.PointAt(*traceDepth); ok {
			p.GatedPower.Publish(reg, "power.gated")
			p.PlainPower.Publish(reg, "power.plain")
		}
	}
	if *metricsOut != "" {
		if err := writeTo(*metricsOut, func(f *os.File) error {
			return reg.WriteJSONL(f, &man)
		}); err != nil {
			return fail(err)
		}
		log.Info("wrote metrics", "path", *metricsOut)
	}
	if *tracePath != "" {
		if err := writeTo(*tracePath, func(f *os.File) error {
			return tracer.WriteChromeTrace(f, &man)
		}); err != nil {
			return fail(err)
		}
		log.Info("wrote Chrome trace", "depth", *traceDepth,
			"events", tracer.Len(), "evicted", tracer.Dropped(), "path", *tracePath)
	}
	cache.LogSummary(log)
	if fitErrors > 0 {
		log.Warn("run summary", "fit_errors", fitErrors, "points", len(s.Points))
	} else {
		log.Info("run summary", "fit_errors", 0, "points", len(s.Points))
	}

	wall := time.Since(start)
	if broker != nil {
		_ = broker.Publish(telemetry.DashEvent{
			Kind: "done", Workload: prof.Name,
			Done: len(s.Points), Total: len(depths),
			PointsPerSec: float64(len(s.Points)) / wall.Seconds(),
			CacheHits:    int(liveHits.Load()),
			FitErrors:    fitErrors,
			WallSec:      wall.Seconds(),
		})
	}

	if dbg != nil && *linger > 0 {
		log.Info("lingering for scrapers", "addr", dbg.Addr(), "for", linger.String())
		time.Sleep(*linger)
	}
	return 0
}

// writeTo creates path, runs fn on the file, and closes it, reporting
// the first error.
func writeTo(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
