// Command conformance executes the repository's conformance matrix:
// the in-sim invariant engine over a catalog of sweeps, the
// differential checks (cache on/off, serial/parallel, codec
// round-trip, seed determinism — all bit-identical, not epsilon) and
// the theory-vs-simulation envelopes (Fig. 4 as an executable
// assertion). It is the CI gate proving the analytic model and the
// cycle-accurate simulator still tell the same story.
//
// Usage:
//
//	conformance                          # full default matrix, exit 0 when clean
//	conformance -workloads si95-gcc,sf-swim -depths 4,8,12,20
//	conformance -out report.json         # machine-readable report
//	conformance -json                    # report on stdout
//	conformance -bench-out BENCH_conformance.json
//	                                     # append throughput + invariant-overhead record
//
// Self-test:
//
//	conformance -list-mutations          # the injectable violation classes
//	conformance -mutate drop-retire      # plant a known bug; MUST exit nonzero
//
// Exit codes: 0 clean, 1 conformance violations (or harness failure),
// 2 usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/invariant"
	"repro/internal/logx"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("conformance", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloads = fs.String("workloads", "", "comma-separated catalog workloads (default: each class's representative)")
		depths    = fs.String("depths", "", "comma-separated depth axis (default: sparse 4-24)")
		n         = fs.Int("n", 0, "instructions per run (default: harness fast default)")
		warm      = fs.Int("warmup", 0, "warm-up instructions (-1 for none; default: harness fast default)")
		parallel  = fs.Int("parallel", 0, "parallelism for the wide half of the serial/parallel differential")
		mutate    = fs.String("mutate", "", "inject a known violation class (self-test; run MUST then exit nonzero)")
		listMuts  = fs.Bool("list-mutations", false, "print the injectable violation classes and exit")
		outPath   = fs.String("out", "", "write the JSON report to this file")
		jsonOut   = fs.Bool("json", false, "print the JSON report on stdout instead of the summary table")
		benchOut  = fs.String("bench-out", "", "append a conformance bench record (throughput, invariant-engine overhead) to this JSONL file")
		profDir   = fs.String("profile-dir", "", "capture CPU/heap/allocs pprof profiles and a hot-function summary into this directory")
	)
	logOpts := logx.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log, err := logOpts.Logger(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "conformance:", err)
		return 2
	}

	if *listMuts {
		for _, m := range difftest.Mutations() {
			fmt.Fprintln(stdout, m)
		}
		return 0
	}

	opts := difftest.Options{
		Instructions: *n,
		Warmup:       *warm,
		Parallelism:  *parallel,
		Metrics:      telemetry.NewRegistry(),
		Mutate:       difftest.Mutation(*mutate),
	}
	if *workloads != "" {
		for _, name := range strings.Split(*workloads, ",") {
			name = strings.TrimSpace(name)
			prof, ok := workload.ByName(name)
			if !ok {
				fmt.Fprintf(stderr, "conformance: unknown workload %q\n", name)
				return 2
			}
			opts.Profiles = append(opts.Profiles, prof)
		}
	}
	if *depths != "" {
		for _, s := range strings.Split(*depths, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(stderr, "conformance: bad depth %q: %v\n", s, err)
				return 2
			}
			opts.Depths = append(opts.Depths, d)
		}
	}

	opts = opts.WithDefaults()
	var capture *profile.Capture
	if *profDir != "" {
		if capture, err = profile.Start(*profDir); err != nil {
			log.Error("start profiling", "err", err)
			return 1
		}
	}
	start := time.Now()
	rep, err := difftest.Run(opts)
	if sum, perr := capture.Stop(); perr != nil {
		log.Error("stop profiling", "err", perr)
		return 1
	} else if capture != nil {
		log.Info("wrote profiles", "dir", capture.Dir(), "hot_funcs", len(sum.Top))
	}
	if err != nil {
		log.Error("conformance harness failed", "err", err)
		return 1
	}

	if *jsonOut {
		if err := writeJSON(stdout, rep); err != nil {
			log.Error("encode report", "err", err)
			return 1
		}
	} else {
		printSummary(stdout, rep)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Error("write report", "err", err)
			return 1
		}
		werr := writeJSON(f, rep)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			log.Error("write report", "path", *outPath, "err", werr)
			return 1
		}
		log.Info("wrote report", "path", *outPath)
	}

	if *benchOut != "" {
		if err := appendBench(*benchOut, opts, rep, start, log.Info); err != nil {
			log.Error("append bench record", "err", err)
			return 1
		}
	}

	if !rep.OK {
		log.Error("conformance FAILED", "failed", rep.Failed, "passed", rep.Passed,
			"violations", len(rep.Violations), "mutate", string(rep.Mutate))
		return 1
	}
	log.Info("conformance clean", "passed", rep.Passed, "wall", time.Since(start).Round(time.Millisecond).String())
	return 0
}

func writeJSON(w io.Writer, rep *difftest.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// printSummary renders the per-check verdict table.
func printSummary(w io.Writer, rep *difftest.Report) {
	fmt.Fprintf(w, "%-24s %-14s %-6s %s\n", "CHECK", "WORKLOAD", "VERDICT", "DETAIL")
	for _, c := range rep.Checks {
		verdict := "ok"
		if !c.Passed {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%-24s %-14s %-6s %s\n", c.Name, c.Workload, verdict, c.Detail)
	}
	if len(rep.Violations) > 0 {
		fmt.Fprintln(w, "\nviolations by rule:")
		for _, rc := range rep.Violations {
			fmt.Fprintf(w, "  %-32s %d\n", rc.Rule, rc.Count)
		}
	}
	fmt.Fprintf(w, "\n%d passed, %d failed\n", rep.Passed, rep.Failed)
}

// benchRounds is the best-of-N count for each timed leg of the bench
// measurement.
const benchRounds = 3

// appendBench measures the invariant engine's cost on a small sweep —
// design-point throughput with the engine detached (the production
// default) and attached, plus the per-cycle reference engine — and
// appends the conformance bench record. Each leg is timed
// benchRounds times and keeps its best rate; the leg order rotates
// every round, so each leg runs once in every position and no leg
// always inherits the memo and heap state its predecessor left.
func appendBench(path string, opts difftest.Options, rep *difftest.Report, start time.Time,
	info func(msg string, args ...any)) error {
	profiles := opts.Profiles
	legs := []struct {
		observed bool
		engine   pipeline.EngineKind
		best     float64
	}{
		{false, pipeline.EngineAuto, 0},
		{true, pipeline.EngineAuto, 0},
		// The before/after pair for the skip-ahead engine: the same
		// matrix with per-cycle reference stepping forced is the
		// "before".
		{false, pipeline.EnginePerCycle, 0},
	}
	points := 0
	for round := 0; round < benchRounds; round++ {
		for i := range legs {
			leg := &legs[(i+round)%len(legs)]
			cfg := core.StudyConfig{
				Depths:       opts.Depths,
				Instructions: opts.Instructions,
				Warmup:       opts.Warmup,
				Engine:       leg.engine,
			}
			if leg.observed {
				cfg.Invariants = invariant.New(nil)
			}
			t0 := time.Now()
			sweeps, err := core.RunCatalog(cfg, profiles)
			if err != nil {
				return err
			}
			elapsed := time.Since(t0).Seconds()
			n := 0
			for _, sw := range sweeps {
				n += len(sw.Points)
			}
			points = n
			leg.best = max(leg.best, float64(n)/elapsed)
		}
	}
	offRate, onRate, perCycleRate := legs[0].best, legs[1].best, legs[2].best
	seedRate := bench.SeedRate(path, func(r bench.Record) float64 {
		if r.PointsPerSecOff == nil {
			return 0
		}
		return *r.PointsPerSecOff
	})

	rec := bench.NewRecord("conformance", start)
	rec.Points = points
	rec.ChecksPassed = rep.Passed
	rec.ChecksFailed = bench.Ptr(rep.Failed)
	var violations uint64
	for _, rc := range rep.Violations {
		violations += rc.Count
	}
	rec.Violations = bench.Ptr(violations)
	rec.PointsPerSecOff = bench.Ptr(offRate)
	rec.PointsPerSecOn = bench.Ptr(onRate)
	rec.PointsPerSecPerCycle = bench.Ptr(perCycleRate)
	overhead := "n/a"
	if onRate > 0 {
		frac := offRate/onRate - 1
		rec.InvariantOverhead = &frac
		overhead = fmt.Sprintf("%.1f%%", 100*frac)
	}
	if seedRate > 0 {
		rec.SpeedupVsSeed = offRate / seedRate
	}
	rec.CacheMisses = uint64(points)
	rec.Finish(start)
	if err := bench.Append(path, rec); err != nil {
		return err
	}
	info("appended bench record", "path", path,
		"points_per_sec_off", fmt.Sprintf("%.1f", offRate),
		"points_per_sec_on", fmt.Sprintf("%.1f", onRate),
		"points_per_sec_per_cycle", fmt.Sprintf("%.1f", perCycleRate),
		"speedup_vs_seed", fmt.Sprintf("%.2fx", rec.SpeedupVsSeed),
		"overhead", overhead)
	return nil
}
