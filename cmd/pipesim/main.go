// Command pipesim runs one workload on the cycle-accurate simulator at
// one pipeline depth and prints detailed statistics: timing, hazard
// accounting, extracted theory parameters, and the power breakdown.
//
// Usage:
//
//	pipesim -workload si95-gcc -depth 10
//	pipesim -workload oltp-bank -depth 20 -n 50000 -predictor gshare
//	pipesim -tape trace.bin -depth 12        # binary trace tape input
//	pipesim -workloads                       # list catalog workloads
//
// Observability:
//
//	pipesim -trace out.json                  # Chrome trace_event file
//	                                         # (chrome://tracing, perfetto)
//	pipesim -trace-jsonl events.jsonl        # event trace as JSON Lines
//	pipesim -metrics-out metrics.jsonl       # counters + run manifest
//	pipesim -pprof localhost:6060            # /debug/pprof, /debug/vars
//	                                         # and Prometheus /metrics
//	pipesim -log-level debug                 # structured diagnostics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/branch"
	"repro/internal/fit"
	"repro/internal/logx"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/telemetry/promexp"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is pipesim with its arguments and output streams explicit; it
// returns the process exit code (2 for a bad flag, 1 for a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "si95-gcc", "catalog workload name")
		tapePath = fs.String("tape", "", "binary trace tape file (overrides -workload)")
		profile  = fs.String("profile", "", "JSON workload profile file (overrides -workload)")
		depth    = fs.Int("depth", 10, "pipeline depth (decode..execute stages)")
		n        = fs.Int("n", 30000, "instructions to simulate")
		warm     = fs.Int("warmup", 30000, "cache/predictor warm-up instructions (generator input only)")
		pred     = fs.String("predictor", "tournament", "branch predictor: static|bimodal|gshare|tournament")
		ooo      = fs.Bool("ooo", false, "out-of-order execution with register renaming")
		machine  = fs.String("machine", "zseries", "machine preset: zseries|zseries-ooo|narrow|wide")
		sample   = fs.Uint64("power-trace", 0, "sample interval in cycles for a power-over-time trace (0 = off)")
		units    = fs.Bool("units", false, "print the per-unit utilization table")
		list     = fs.Bool("workloads", false, "list catalog workloads and exit")

		tracePath   = fs.String("trace", "", "write the cycle-level event trace in Chrome trace_event format to this file")
		traceJSONL  = fs.String("trace-jsonl", "", "write the cycle-level event trace as JSON Lines to this file")
		traceEvents = fs.Int("trace-events", 0, "event-trace ring capacity (0 = default 262144; oldest events are evicted)")
		traceSample = fs.Uint64("trace-sample", 0, "record only every Nth cycle of the event trace (0 or 1 = every cycle)")
		metricsOut  = fs.String("metrics-out", "", "write a JSONL metrics dump (run manifest + counters) to this file")
		pprofAddr   = fs.String("pprof", "", "serve /debug/pprof, /debug/vars and /metrics on this address (e.g. localhost:6060)")
	)
	logOpts := logx.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log, err := logOpts.Logger(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "pipesim:", err)
		return 2
	}
	fail := func(err error) int {
		log.Error("pipesim failed", "err", err)
		return 1
	}

	if *list {
		for _, p := range workload.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", p.Name, p.Class)
		}
		return 0
	}

	var reg *telemetry.Registry
	if *metricsOut != "" || *pprofAddr != "" {
		reg = telemetry.NewRegistry()
		reg.PublishExpvar("repro_metrics")
	}
	if *pprofAddr != "" {
		dbg, err := telemetry.ServeDebug(*pprofAddr)
		if err != nil {
			return fail(err)
		}
		defer dbg.Close()
		dbg.Handle("/metrics", promexp.Handler(reg))
		log.Info("debug server up",
			"pprof", "http://"+dbg.Addr()+"/debug/pprof/",
			"metrics", "http://"+dbg.Addr()+"/metrics")
	}

	cfg, err := machineConfig(*machine, *pred, *depth)
	if err != nil {
		return fail(err)
	}
	if *ooo {
		cfg.OutOfOrder = true
	}
	cfg.SampleInterval = *sample

	var tracer *telemetry.Tracer
	if *tracePath != "" || *traceJSONL != "" {
		tracer = pipeline.NewTracer(*traceEvents)
		tracer.SetSampling(*traceSample)
		cfg.Tracer = tracer
	}
	models, err := pipeline.NewModels(&cfg)
	if err != nil {
		return fail(err)
	}

	var src trace.Stream
	wlName, wlSeed := "", uint64(0)
	switch {
	case *tapePath != "":
		// Decode the whole tape up front: a truncated or corrupt tape
		// is fatal instead of a silently shorter run.
		f, err := os.Open(*tapePath)
		if err != nil {
			return fail(err)
		}
		packed, err := trace.ReadAllPacked(f)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("tape %s: %w", *tapePath, err))
		}
		src = packed.Slice(0, *n)
		wlName = "tape:" + *tapePath
	default:
		var prof workload.Profile
		if *profile != "" {
			f, err := os.Open(*profile)
			if err != nil {
				return fail(err)
			}
			prof, err = workload.ReadProfile(f)
			f.Close()
			if err != nil {
				return fail(err)
			}
		} else {
			var ok bool
			prof, ok = workload.ByName(*name)
			if !ok {
				return fail(fmt.Errorf("unknown workload %q (use -workloads)", *name))
			}
		}
		wlName, wlSeed = prof.Name, prof.Seed
		gen, err := workload.NewGenerator(prof)
		if err != nil {
			return fail(err)
		}
		// Warm the models with the leading instructions, then
		// measure the steady-state portion.
		models.Warm(gen, *warm)
		src = trace.NewLimitStream(gen, *n)
	}

	// The run manifest travels with every exported artifact.
	man := runManifest(cfg)
	start := time.Now()
	res, err := pipeline.RunWith(cfg, models, src)
	if err != nil {
		return fail(err)
	}
	man.Finish(start)
	fmt.Fprint(stdout, res)
	if *units {
		fmt.Fprint(stdout, res.UtilizationReport())
	}

	if ex, err := fit.Extract(res); err == nil {
		fmt.Fprintf(stdout, "extracted: %s\n", ex)
	}

	pm := power.DefaultModel()
	if *sample > 0 {
		fmt.Fprintf(stdout, "\npower trace (gated), interval %d cycles:\n", *sample)
		fmt.Fprintf(stdout, "%10s %10s %10s %8s\n", "cycle", "total", "dynamic", "IPC")
		for i, b := range pm.PowerTrace(res, true) {
			sm := res.Samples[i]
			fmt.Fprintf(stdout, "%10d %10.4g %10.4g %8.2f\n",
				sm.Cycle, b.Total(), b.Dynamic, float64(sm.Retired)/float64(*sample))
		}
		fmt.Fprintln(stdout)
	}
	for _, gated := range []bool{true, false} {
		b := pm.Evaluate(res, gated)
		mode := "non-gated"
		if gated {
			mode = "clock-gated"
		}
		fmt.Fprintf(stdout, "power %-11s total=%.4g dynamic=%.4g leakage=%.4g (%.1f%%) latches=%.0f\n",
			mode, b.Total(), b.Dynamic, b.Leakage, 100*b.LeakageFraction(), b.Latches)
		bips := res.BIPS()
		fmt.Fprintf(stdout, "  BIPS=%.5f BIPS/W=%.4g BIPS^2/W=%.4g BIPS^3/W=%.4g\n",
			bips, bips/b.Total(), bips*bips/b.Total(), bips*bips*bips/b.Total())
	}

	man.SetParam("workload", wlName)
	if wlSeed != 0 {
		man.SetParam("seed", fmt.Sprintf("%#x", wlSeed))
	}
	man.SetParam("instructions", strconv.Itoa(*n))
	man.SetParam("warmup", strconv.Itoa(*warm))

	if reg != nil {
		res.PublishMetrics(reg)
		gb, pb := pm.Evaluate(res, true), pm.Evaluate(res, false)
		gb.Publish(reg, "power.gated")
		pb.Publish(reg, "power.plain")
		gb.PublishAttribution(reg, *depth, res.TimeFO4())
		pb.PublishAttribution(reg, *depth, res.TimeFO4())
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
		log.Info("wrote Chrome trace", "events", tracer.Len(),
			"evicted", tracer.Dropped(), "path", *tracePath)
	}
	if *traceJSONL != "" {
		if err := writeTo(*traceJSONL, func(f *os.File) error {
			return tracer.WriteJSONL(f, &man)
		}); err != nil {
			return fail(err)
		}
		log.Info("wrote JSONL trace", "events", tracer.Len(), "path", *traceJSONL)
	}
	return 0
}

// runManifest describes the simulated machine for the exported
// artifacts: its configuration hash and its shape.
func runManifest(cfg pipeline.Config) telemetry.Manifest {
	m := telemetry.NewManifest("pipesim")
	m.ConfigHash = cfg.Fingerprint()
	m.SetParam("depth", strconv.Itoa(cfg.Plan.Depth))
	m.SetParam("width", strconv.Itoa(cfg.Width))
	m.SetParam("cycle_time_fo4", fmt.Sprintf("%.3f", cfg.CycleTime()))
	if cfg.OutOfOrder {
		m.SetParam("ooo", "true")
	}
	return m
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

// machineConfig builds the -machine preset at depth with the -predictor
// override applied: a non-default predictor replaces the preset's
// choice (the default "tournament" leaves preset-specific predictors
// intact).
func machineConfig(machine, pred string, depth int) (pipeline.Config, error) {
	cfg, err := pipeline.PresetConfig(pipeline.Preset(machine), depth)
	if err != nil {
		return cfg, err
	}
	if pred != "tournament" {
		cfg.Predictor = branch.PredictorConfig{Kind: branch.Kind(pred), Bits: 12}
	}
	return cfg, cfg.Predictor.Validate()
}
