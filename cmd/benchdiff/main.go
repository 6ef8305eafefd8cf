// Command benchdiff compares two benchmark-trajectory records (see
// internal/bench) and fails when the candidate regressed beyond a
// noise band: points/sec throughput, the invariant-engine overhead
// measurement, and per-phase p50/p95/p99 latency quantiles. CI runs it
// after each smoke sweep to turn "did this PR make sweeps slower?"
// into an exit code.
//
// Usage:
//
//	benchdiff -baseline BENCH_sweep.json [-candidate new.json] [-noise 0.20]
//
// With only -baseline, the file's last record is compared against its
// second-to-last — the common CI shape, where the smoke run has just
// appended one record to the committed trajectory. With -candidate,
// the candidate file's last record is compared against the baseline
// file's last. Exit status: 0 comparison passed (or nothing to
// compare), 1 regression detected, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "baseline trajectory file (required)")
	candidate := fs.String("candidate", "", "candidate trajectory file (default: last-vs-previous within -baseline)")
	noise := fs.Float64("noise", 0.20, "relative noise band; regressions within it pass")
	minPhaseUS := fs.Float64("min-phase-us", 100, "ignore phase quantiles below this many µs (clock noise)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseline == "" || fs.NArg() > 0 || *noise < 0 {
		fmt.Fprintln(stderr, "benchdiff: -baseline is required and takes no positional arguments")
		fs.Usage()
		return 2
	}

	base, err := bench.Load(*baseline)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	var old, new_ *bench.Record
	var oldName, newName string
	if *candidate == "" || *candidate == *baseline {
		// Self-comparison mode: newest record against the one before it.
		if len(base) < 2 {
			fmt.Fprintf(stdout, "benchdiff: %s has %d record(s); nothing to compare yet — pass\n",
				*baseline, len(base))
			return 0
		}
		old, new_ = &base[len(base)-2], &base[len(base)-1]
		oldName = fmt.Sprintf("%s[%d]", *baseline, len(base)-2)
		newName = fmt.Sprintf("%s[%d]", *baseline, len(base)-1)
	} else {
		cand, err := bench.Load(*candidate)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		if len(base) == 0 {
			fmt.Fprintf(stdout, "benchdiff: baseline %s is empty or missing; nothing to compare — pass\n", *baseline)
			return 0
		}
		if len(cand) == 0 {
			fmt.Fprintf(stdout, "benchdiff: candidate %s is empty or missing; nothing to compare — pass\n", *candidate)
			return 0
		}
		old, new_ = &base[len(base)-1], &cand[len(cand)-1]
		oldName, newName = *baseline, *candidate
	}

	fmt.Fprintf(stdout, "benchdiff: %s (%s) vs %s (%s), noise band ±%.0f%%\n",
		oldName, old.StartedAt, newName, new_.StartedAt, *noise*100)
	regressions := compare(old, new_, *noise, *minPhaseUS, stdout)
	if regressions > 0 {
		fmt.Fprintf(stdout, "benchdiff: FAIL — %d regression(s) beyond the noise band\n", regressions)
		return 1
	}
	fmt.Fprintln(stdout, "benchdiff: PASS")
	return 0
}

// compare prints one line per comparable metric and returns how many
// regressed beyond the noise band. Metrics absent from either record
// are skipped: trajectories mix sweep and conformance records, which
// populate different fields, and a tool-specific figure missing from a
// record (a nil bench.Record pointer) was not measured by it.
func compare(old, new_ *bench.Record, noise, minPhaseUS float64, w io.Writer) int {
	regressions := 0
	higher := func(name string, o, n float64) {
		regressions += report(w, name, o, n, noise, true)
	}
	lower := func(name string, o, n float64) {
		regressions += report(w, name, o, n, noise, false)
	}

	if old.PointsPerSec > 0 && new_.PointsPerSec > 0 {
		higher("points_per_sec", old.PointsPerSec, new_.PointsPerSec)
	}
	// Server (depthd-load) records measure HTTP throughput alongside
	// design-point throughput.
	if old.RequestsPerSec > 0 && new_.RequestsPerSec > 0 {
		higher("requests_per_sec", old.RequestsPerSec, new_.RequestsPerSec)
	}
	if both(old.PointsPerSecOff, new_.PointsPerSecOff) {
		higher("points_per_sec_invariants_off", *old.PointsPerSecOff, *new_.PointsPerSecOff)
	}
	if both(old.PointsPerSecOn, new_.PointsPerSecOn) {
		higher("points_per_sec_invariants_on", *old.PointsPerSecOn, *new_.PointsPerSecOn)
	}
	if both(old.PointsPerSecPerCycle, new_.PointsPerSecPerCycle) {
		higher("points_per_sec_per_cycle", *old.PointsPerSecPerCycle, *new_.PointsPerSecPerCycle)
	}
	// The skip-ahead engine must stay at or above the per-cycle
	// reference it replaces. This gate is within the candidate record
	// alone — both engines were timed in the same run, on the same
	// machine, so the comparison needs no baseline and any drop beyond
	// the noise band means the optimized engine regressed below the
	// baseline stepping.
	if off, pc := new_.PointsPerSecOff, new_.PointsPerSecPerCycle; both(off, pc) && *off > 0 && *pc > 0 {
		rel := *off / *pc - 1
		status := "ok"
		if rel < -noise {
			status = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "  %-34s %10.2f vs %10.2f  (%+6.1f%%)  %s\n",
			"engine_vs_per_cycle", *off, *pc, rel*100, status)
	}
	// Overhead is a fraction near zero, so compare on an absolute band:
	// growing from 1% to 1.1% is noise, growing past the band is not.
	if both(old.InvariantOverhead, new_.InvariantOverhead) {
		regressions += absBand(w, "invariant_overhead_frac", *old.InvariantOverhead, *new_.InvariantOverhead, noise)
	}

	// Ledger shedding is a fraction near zero, so like the invariant
	// overhead it compares on an absolute band: a load test that starts
	// dropping a meaningful share of its canonical events regressed,
	// whatever the baseline was.
	if old.LedgerEvents > 0 && new_.LedgerEvents > 0 {
		regressions += absBand(w, "ledger_drop_frac", old.LedgerDropFrac, new_.LedgerDropFrac, noise)
	}
	// Alloc-guard records carry deterministic near-zero allocation
	// counts, so like the other near-zero fractions they compare on an
	// absolute band: any steady-state allocation creeping into the
	// per-cycle or per-evaluation path regressed, whatever the noise
	// setting. Gated on both records being allocguard runs so mixed
	// trajectories skip it, and per figure on both records having
	// measured it.
	if old.Tool == "allocguard" && new_.Tool == "allocguard" {
		for _, m := range [...]struct {
			name string
			o, n *float64
		}{
			{"allocs_per_cycle", old.AllocsPerCycle, new_.AllocsPerCycle},
			{"allocs_per_cycle_fast", old.AllocsPerCycleFast, new_.AllocsPerCycleFast},
			{"allocs_per_cycle_fast_observed", old.AllocsPerCycleFastObserved, new_.AllocsPerCycleFastObserved},
			{"allocs_per_eval", old.AllocsPerEval, new_.AllocsPerEval},
			{"allocs_per_packed_record", old.AllocsPerPackedRecord, new_.AllocsPerPackedRecord},
		} {
			if both(m.o, m.n) {
				regressions += absBand(w, m.name, *m.o, *m.n, noise)
			}
		}
	}
	// Burn rate only regresses when it grows beyond the noise band AND
	// the run actually ends over budget (burn > 1): drifting from 0.1
	// to 0.3 is headroom, not an alert.
	if old.MaxBurnRate > 0 && new_.MaxBurnRate > 0 {
		rel := new_.MaxBurnRate/old.MaxBurnRate - 1
		status := "ok"
		if rel > noise && new_.MaxBurnRate > 1 {
			status = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "  %-34s %10.4f -> %10.4f  (%+6.1f%%)  %s\n",
			"max_burn_rate", old.MaxBurnRate, new_.MaxBurnRate, rel*100, status)
	}

	// Phase quantiles, lower-better, for phases both records measured.
	names := make([]string, 0, len(old.Phases))
	for name := range old.Phases {
		if _, ok := new_.Phases[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		op, np := old.Phases[name], new_.Phases[name]
		if op.Count == 0 || np.Count == 0 {
			continue
		}
		for _, q := range []struct {
			label string
			o, n  float64
		}{
			{"p50_us", op.P50US, np.P50US},
			{"p95_us", op.P95US, np.P95US},
			{"p99_us", op.P99US, np.P99US},
		} {
			// Sub-floor durations are dominated by clock resolution and
			// scheduler jitter; comparing them yields false alarms.
			if q.o < minPhaseUS && q.n < minPhaseUS {
				continue
			}
			lower("phase."+name+"."+q.label, q.o, q.n)
		}
	}
	return regressions
}

// both reports whether two records both measured a figure.
func both[T any](old, new_ *T) bool { return old != nil && new_ != nil }

// absBand prints one comparison line for a near-zero figure judged on
// an absolute band, and returns 1 if it grew by more than the band.
func absBand(w io.Writer, name string, old, new_, noise float64) int {
	delta := new_ - old
	status, ret := "ok", 0
	if delta > noise {
		status, ret = "REGRESSION", 1
	}
	fmt.Fprintf(w, "  %-34s %10.4f -> %10.4f  (%+.4f abs)  %s\n", name, old, new_, delta, status)
	return ret
}

// report prints one comparison line and returns 1 if it regressed.
// higherBetter selects the direction; the change is judged relative to
// the old value.
func report(w io.Writer, name string, old, new_, noise float64, higherBetter bool) int {
	if old <= 0 || math.IsNaN(old) || math.IsNaN(new_) {
		return 0
	}
	rel := new_/old - 1
	bad := rel < -noise
	if !higherBetter {
		bad = rel > noise
	}
	status := "ok"
	ret := 0
	if bad {
		status = "REGRESSION"
		ret = 1
	}
	fmt.Fprintf(w, "  %-34s %10.1f -> %10.1f  (%+6.1f%%)  %s\n", name, old, new_, rel*100, status)
	return ret
}
