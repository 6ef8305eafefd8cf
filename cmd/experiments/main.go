// Command experiments regenerates the paper's figures and headline
// numbers from this repository's theory and simulator.
//
// Usage:
//
//	experiments -fig all                 # every experiment, full settings
//	experiments -fig fig6,fig7           # selected experiments
//	experiments -fig fig4b -n 10000      # shorter traces
//	experiments -fig all -csv out/       # also dump CSV data files
//	experiments -fig all -cache-dir d    # memoize simulated design points
//	experiments -list                    # list experiment ids
//
// Observability:
//
//	experiments -pprof localhost:6060    # /debug/pprof, /debug/vars,
//	                                     # /metrics, /progress, /dash
//	experiments -log-format json         # structured diagnostics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/logx"
	"repro/internal/profile"
	"repro/internal/resultcache"
	"repro/internal/serve/spec"
	"repro/internal/telemetry"
	"repro/internal/telemetry/promexp"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// writeSummaries sweeps the catalog and saves JSON digests for reuse.
func writeSummaries(path string, opt experiments.Options, stdout io.Writer) error {
	cfg := core.StudyConfig{
		Instructions: opt.Instructions,
		Warmup:       opt.Warmup,
		Depths:       opt.Depths,
		Parallelism:  opt.Parallelism,
		Cache:        opt.Cache,
		Metrics:      opt.Metrics,
		Progress:     opt.Progress,
	}
	sweeps, err := core.RunCatalog(cfg, workload.All())
	if err != nil {
		return err
	}
	sums, err := core.SummarizeCatalog(sweeps)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := core.WriteSummaries(f, sums); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d workload summaries to %s\n", len(sums), path)
	return nil
}

// progressPublisher maps core progress callbacks onto the SSE broker
// feeding /dash — the same DashEvent schema cmd/sweep emits, so one
// dashboard serves both commands.
func progressPublisher(broker *telemetry.Broker, start time.Time) func(core.Progress) {
	var hits atomic.Int64
	return func(p core.Progress) {
		if p.CacheHit {
			hits.Add(1)
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
		_ = broker.Publish(telemetry.DashEvent{
			Kind:         "point",
			Workload:     p.Workload,
			Class:        p.Class.String(),
			Depth:        p.Depth,
			Done:         p.Done,
			Total:        p.Total,
			CacheHit:     p.CacheHit,
			BIPS:         p.Point.Result.BIPS(),
			ETASec:       eta,
			PointsPerSec: rate,
			CacheHits:    int(hits.Load()),
		})
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "all", "comma-separated experiment ids, or 'all'")
		n       = fs.Int("n", 0, "instructions per simulation run (default 30000)")
		warm    = fs.Int("warmup", 0, "warm-up instructions (default 30000, -1 for none)")
		nwl     = fs.Int("workloads", 0, "cap the workload catalog size (0 = all 55)")
		csvDir  = fs.String("csv", "", "directory to write per-figure CSV data files")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		plot    = fs.Bool("plot", false, "render ASCII charts under each figure")
		summary = fs.String("summary", "", "write JSON sweep summaries of the full catalog to this file and exit")
		md      = fs.String("md", "", "run every experiment and write a Markdown report to this file")
		par     = fs.Int("parallel", 0, "concurrent workload sweeps (default NumCPU)")
		timings = fs.Bool("time", false, "print per-experiment wall time")

		cacheDir   = fs.String("cache-dir", "", "directory for the on-disk result cache (empty = no caching)")
		cacheRO    = fs.Bool("cache-readonly", false, "read cached results but never write new ones")
		cacheClear = fs.Bool("cache-clear", false, "drop all cached results before running")

		metricsOut = fs.String("metrics-out", "", "write a JSONL metrics dump (manifest + per-experiment timing and row counts) to this file")
		pprofAddr  = fs.String("pprof", "", "serve /debug/pprof, /debug/vars, /metrics, /progress and /dash on this address (e.g. localhost:6060)")
		profDir    = fs.String("profile-dir", "", "capture CPU/heap/allocs pprof profiles into this directory")
	)
	logOpts := logx.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log, err := logOpts.Logger(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-9s %s\n", e.ID, e.Title)
		}
		return 0
	}

	// The run shape is vetted by the shared study-spec rules, the same
	// validation depthd applies to submitted studies and sweep applies
	// to its flags — one home for instruction/warmup/catalog bounds.
	shape := spec.Spec{Instructions: *n, Warmup: *warm}
	if *nwl < 0 || *nwl > workload.Count {
		log.Error("workload cap out of range", "workloads", *nwl, "catalog", workload.Count)
		return 2
	}
	if *nwl > 0 {
		shape.Workloads = workload.Names()[:*nwl]
	}
	if err := shape.Validate(spec.DefaultLimits()); err != nil {
		log.Error("invalid run shape", "err", err)
		return 2
	}
	shape = shape.Normalize()

	var reg *telemetry.Registry
	if *metricsOut != "" || *pprofAddr != "" {
		reg = telemetry.NewRegistry()
		reg.PublishExpvar("repro_metrics")
	}
	if *profDir != "" {
		capture, err := profile.Start(*profDir)
		if err != nil {
			log.Error("start profiling", "err", err)
			return 1
		}
		// Deferred so every exit path (summary, markdown, per-figure)
		// still lands the capture; a stop failure is logged, not fatal —
		// the experiment results are already out.
		defer func() {
			if err := capture.Stop(); err != nil {
				log.Error("stop profiling", "err", err)
				return
			}
			log.Info("wrote profiles", "dir", capture.Dir())
		}()
	}
	runStart := time.Now()

	var (
		dbg    *telemetry.DebugServer
		broker *telemetry.Broker
	)
	if *pprofAddr != "" {
		dbg, err = telemetry.ServeDebug(*pprofAddr)
		if err != nil {
			log.Error("debug server failed", "err", err)
			return 1
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

	cache, err := resultcache.OpenDir(*cacheDir, *cacheRO, *cacheClear, reg)
	if err != nil {
		log.Error("cache open failed", "err", err)
		return 1
	}

	opt := experiments.Options{
		Instructions: shape.Instructions,
		Warmup:       shape.Warmup,
		Workloads:    *nwl,
		Parallelism:  *par,
		Cache:        cache,
		Metrics:      reg,
	}
	if broker != nil {
		opt.Progress = progressPublisher(broker, runStart)
	}

	if *summary != "" {
		if err := writeSummaries(*summary, opt, stdout); err != nil {
			log.Error("summary failed", "err", err)
			return 1
		}
		cache.LogSummary(log)
		return 0
	}

	if *md != "" {
		results := experiments.RunAll(opt)
		f, err := os.Create(*md)
		if err != nil {
			log.Error("markdown report failed", "err", err)
			return 1
		}
		werr := experiments.WriteMarkdown(f, results)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			log.Error("markdown report failed", "err", werr)
			return 1
		}
		bad := 0
		for _, r := range results {
			if r.Err != nil {
				log.Error("experiment failed", "id", r.Experiment.ID, "err", r.Err)
				bad++
			}
		}
		fmt.Fprintf(stdout, "wrote %d experiment reports to %s (%d failed)\n",
			len(results), *md, bad)
		cache.LogSummary(log)
		if bad > 0 {
			return 1
		}
		return 0
	}

	var ids []string
	if *fig == "all" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(*fig, ",")
	}

	exit := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := experiments.ByID(id)
		if !ok {
			log.Error("unknown experiment (use -list)", "id", id)
			exit = 2
			continue
		}
		start := time.Now()
		rep, err := e.Run(opt)
		if err != nil {
			log.Error("experiment failed", "id", id, "err", err)
			exit = 1
			if reg != nil {
				reg.Counter("experiments.failed").Add(1)
			}
			continue
		}
		if reg != nil {
			reg.Counter("experiments.completed").Add(1)
			reg.Counter("experiments.rows").Add(uint64(len(rep.Rows)))
			reg.Gauge("experiments.seconds." + id).Set(time.Since(start).Seconds())
		}
		render := rep.Render
		if *plot {
			render = rep.RenderWithChart
		}
		if err := render(stdout); err != nil {
			log.Error("render failed", "id", id, "err", err)
			exit = 1
		}
		if *timings {
			fmt.Fprintf(stdout, "(%s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				log.Error("csv dir failed", "err", err)
				exit = 1
				continue
			}
			path := filepath.Join(*csvDir, id+".csv")
			if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
				log.Error("csv write failed", "id", id, "err", err)
				exit = 1
			}
		}
	}

	if *metricsOut != "" {
		man := telemetry.NewManifest("experiments")
		man.SetParam("figures", strings.Join(ids, ","))
		if *n != 0 {
			man.SetParam("instructions", strconv.Itoa(*n))
		}
		man.ConfigHash = telemetry.Fingerprint(ids...)
		man.Finish(runStart)
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Error("metrics-out failed", "err", err)
			return 1
		}
		werr := reg.WriteJSONL(f, &man)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			log.Error("metrics-out failed", "err", werr)
			return 1
		}
		log.Info("wrote metrics", "path", *metricsOut)
	}
	cache.LogSummary(log)
	return exit
}
