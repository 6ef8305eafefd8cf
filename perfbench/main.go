// Command perfbench is the repository benchmark: it runs the paper's
// depth study end to end through the public APIs of core, serve and
// resultcache, checks every output, and prints end-to-end metrics (or,
// with --trace 1, per-layer metrics) as one JSON object on the last
// line of standard output. Run it through run.py from the repository
// root, which builds it with every build file kept under .bench_build:
//
//	python3 perfbench/run.py --workload catalog-cold --seed 1 --seconds 35 --trace 0
//
// and test it with `go test ./...` inside this directory.
//
// Workloads (the seed derives every profile's generator seed, the serve
// spec sequences and every checked sample):
//
//   - catalog-cold: the 55-workload catalog × depths 2–25 at the
//     default 30k measured + 30k warm-up instructions, Parallelism =
//     nproc, writing to an on-disk result cache in a fresh directory,
//     then the paper's fits of every sweep. After it, every catalog
//     workload is re-run as a single-workload repeat study, served
//     from that cache.
//   - catalog-observed: the same matrix with no result cache and the
//     conformance observers attached (an invariant.Recorder and a
//     telemetry.Registry); repeat studies of every sixth catalog
//     workload re-simulate against the warm memo.
//   - serve-mixed: depthd in-process on a loopback listener, nproc
//     closed-loop clients each submitting a study, waiting for it on
//     its SSE event stream, reading its status and fetching its result;
//     studies of 2 workloads × 4 depths drawn from a fixed pool of 8
//     catalog workloads; the first spec and about one in four after it
//     are fresh (simulated against a warm memo and written to the
//     cache), the rest repeat a spec the client already submitted
//     (served from the cache).
//
// Every pass runs in a fresh child process, because the sweep memo in
// core is process-wide. A catalog run makes passes until the measured
// time is spent, each after two set-up-only passes; a serve-mixed run
// makes one pass of that length plus set-up-only passes.
//
// End-to-end metrics (--trace 0): setup_s (median set-up time:
// profiles, cache directory and cache, or observers, timed in blocks of
// many set-ups; for serve-mixed the server and its warmed memo, one
// set-up per fresh process); points_per_s (design points per second:
// the catalog study's, or those served by serve-mixed); studies_per_s (studies, fresh and
// repeat, per second of measured time); fresh_study_* and
// repeat_study_* (exact percentiles of raw study latencies — a
// catalog's fresh study is the whole catalog); heap_retained_mb (live
// heap after a forced collection once the run's results are released);
// peak_rss_mb (VmHWM).
//
// Per-layer metrics (--trace 1) come from three fresh passes: untraced
// at nproc, traced at Parallelism 1, traced at nproc. Self times and
// percentiles come from the serial pass, whose spans never overlap;
// *_wait_s is the wide pass's span time in excess of the serial time
// for the same work; trace.overhead_frac compares the traced and
// untraced wide passes; trace.unattributed_frac is the share of the
// serial pass's measured time covered by no layer: no span and, on the
// catalog workloads, no benchmark timer around fit/theory (serve-mixed
// counts only the server's spans, not the client's own timers, which
// cover every moment of a closed loop). failed_frac (failed checks over
// attempted) is reported here rather than end to end, because it is 0
// when the program is correct.
//
// Correctness is checked on every run: each point passes
// pipeline.CheckResultInvariants, retires the configured instruction
// count and has a cycle budget summing to its cycles; a seed-chosen
// sample is re-simulated on pipeline.EnginePerCycle and must match in
// ResultData byte for byte; repeats must equal the first serving byte
// for byte; served results must equal a direct core run; every pass of
// a run must produce the same statistics digest.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/pipeline"
)

// runBudget bounds the whole invocation, children included.
const runBudget = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "pass" {
		os.Exit(runPass(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

type runOpts struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	nproc    int
	tmp      string
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o runOpts
	fs.StringVar(&o.workload, "workload", "", "catalog-cold, catalog-observed or serve-mixed")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced passes")
	fs.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch o.workload {
	case "catalog-cold", "catalog-observed", "serve-mixed":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	o.nproc = runtime.NumCPU()
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Every pass of the run writes under one directory, removed when the
	// run ends rather than pass by pass: on a file system mounted with
	// online discard, a large delete keeps the device busy for seconds,
	// which made the next pass's set-up (directory creation) several
	// times slower.
	runDir, err := os.MkdirTemp(o.tmp, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer func() {
		os.RemoveAll(runDir)
		syscall.Sync()
	}()
	o.tmp = runDir
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var rep *report
	if o.trace == 0 {
		rep, err = endToEnd(ctx, o)
	} else {
		rep, err = perLayer(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.print(o)
	return 0
}

// child runs one pass in a fresh process and decodes its result.
func child(ctx context.Context, o runOpts, extra ...string) (passResult, time.Duration, error) {
	var res passResult
	exe, err := os.Executable()
	if err != nil {
		return res, 0, err
	}
	args := append([]string{"pass", "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-tmp", o.tmp}, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(o.nproc))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	t := time.Now()
	if err := cmd.Run(); err != nil {
		return res, 0, fmt.Errorf("pass %v: %w", extra, err)
	}
	d := time.Since(t)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, 0, fmt.Errorf("pass %v: decode result: %w", extra, err)
	}
	return res, d, nil
}

func nprocArgs(o runOpts) []string {
	return []string{"-parallelism", strconv.Itoa(o.nproc)}
}

// endToEnd runs untraced passes for the measured time and aggregates
// the end-to-end metrics.
func endToEnd(ctx context.Context, o runOpts) (*report, error) {
	rep := newReport(o)
	if o.workload == "serve-mixed" {
		// Set-up is measured in its own fresh processes too (the memo
		// it warms is process-wide), and the median taken.
		for i := 0; i < serveSetupReps; i++ {
			p, _, err := child(ctx, o, append(nprocArgs(o), "-setup-only")...)
			if err != nil {
				return nil, err
			}
			rep.passes = append(rep.passes, p)
		}
		secs := strconv.Itoa(o.seconds)
		p, _, err := child(ctx, o, append(nprocArgs(o), "-seconds", secs)...)
		if err != nil {
			return nil, err
		}
		rep.passes = append(rep.passes, p)
		rep.main = []passResult{p}
	} else {
		// Passes run until their total is the measured time rounded to
		// the nearest whole pass: another pass runs while it would end
		// at most half a pass beyond it. Set-up-only processes do not
		// count.
		var durs []float64
		spent := 0.0
		for {
			// Directory creation, most of a catalog set-up, is slower
			// or faster for seconds at a time; set-up-only processes
			// between the passes sample more of the run.
			for i := 0; i < catalogSetupOnly; i++ {
				p, _, err := child(ctx, o, append(nprocArgs(o), "-setup-only")...)
				if err != nil {
					return nil, err
				}
				rep.passes = append(rep.passes, p)
			}
			p, d, err := child(ctx, o, nprocArgs(o)...)
			if err != nil {
				return nil, err
			}
			rep.passes = append(rep.passes, p)
			rep.main = append(rep.main, p)
			durs = append(durs, d.Seconds())
			spent += d.Seconds()
			if spent+median(durs)/2 > float64(o.seconds) {
				break
			}
		}
	}
	rep.endToEnd()
	return rep, nil
}

// serveSetupReps is how many extra set-up-only processes serve-mixed
// runs to take the median set-up time over; catalogSetupOnly is how
// many a catalog run makes before each pass.
const (
	serveSetupReps   = 8
	catalogSetupOnly = 2
)

// perLayer runs three fresh passes — untraced at nproc, traced at
// Parallelism 1 and traced at nproc — and derives the per-layer
// metrics: self times from the serial pass, waits as the wide pass's
// excess over it, tracing overhead as traced against untraced.
func perLayer(ctx context.Context, o runOpts) (*report, error) {
	rep := newReport(o)
	serveSecs := strconv.Itoa(max(1, o.seconds/2))
	untracedArgs := nprocArgs(o)
	serialArgs := []string{"-parallelism", "1", "-traced"}
	wideArgs := append(nprocArgs(o), "-traced")
	if o.workload == "serve-mixed" {
		untracedArgs = append(untracedArgs, "-seconds", serveSecs)
		serialArgs = append(serialArgs, "-seconds", serveSecs)
		wideArgs = append(wideArgs, "-seconds", serveSecs)
	}
	var ps [3]passResult
	for i, a := range [][]string{untracedArgs, serialArgs, wideArgs} {
		p, _, err := child(ctx, o, a...)
		if err != nil {
			return nil, err
		}
		ps[i] = p
		rep.passes = append(rep.passes, p)
	}
	rep.main = ps[:1]
	rep.perLayer(ps[0], ps[1], ps[2])
	return rep, nil
}

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	workload string
	passes   []passResult // every pass run, for correctness
	main     []passResult // the passes the metrics come from
	metrics  map[string]metric
	lines    []string // human-readable report lines
}

func newReport(o runOpts) *report {
	return &report{workload: o.workload, metrics: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// pct sets a percentile metric and notes its sample count.
func (r *report) pct(name string, xs []float64, q float64) {
	r.set(name, "ms", quantile(xs, q))
	r.linef("%-22s %10.3f ms  (n=%d, %d beyond)", name, quantile(xs, q), len(xs), beyond(len(xs), q))
}

// beyond is how many of n samples lie above the q-quantile's rank.
func beyond(n int, q float64) int {
	return n - 1 - int(q*float64(n-1))
}

func (r *report) endToEnd() {
	var setup, pps, sps, heap, rss, fresh, repeat []float64
	for _, p := range r.passes {
		setup = append(setup, p.SetupS...)
	}
	for _, p := range r.main {
		if r.workload == "serve-mixed" {
			pps = append(pps, float64(p.Points)/p.WallS)
		} else {
			pps = append(pps, float64(p.FreshPoints)/p.FreshWallS)
		}
		sps = append(sps, float64(p.Studies)/p.WallS)
		heap = append(heap, p.HeapMB)
		rss = append(rss, p.RSSMB)
		fresh = append(fresh, p.FreshMS...)
		repeat = append(repeat, p.RepeatMS...)
	}
	r.set("setup_s", "s", median(setup))
	if r.workload == "serve-mixed" {
		r.linef("%-22s %10.4f s   (median of %d set-ups, one per process)", "setup_s", median(setup), len(setup))
	} else {
		r.linef("%-22s %10.6f s   (median of %d blocks, each the mean of %d set-ups)",
			"setup_s", median(setup), len(setup), setupsPerBlock)
	}
	r.set("points_per_s", "1/s", median(pps))
	r.set("studies_per_s", "1/s", median(sps))
	r.linef("%-22s %10.2f /s  (median of %d passes)", "points_per_s", median(pps), len(pps))
	r.linef("%-22s %10.2f /s  (median of %d passes)", "studies_per_s", median(sps), len(sps))
	r.pct("fresh_study_p50_ms", fresh, 0.50)
	r.pct("fresh_study_p95_ms", fresh, 0.95)
	r.pct("repeat_study_p50_ms", repeat, 0.50)
	r.pct("repeat_study_p95_ms", repeat, 0.95)
	r.set("heap_retained_mb", "MB", median(heap))
	r.set("peak_rss_mb", "MB", median(rss))
	r.linef("%-22s %10.2f MB  (median of %d passes)", "heap_retained_mb", median(heap), len(heap))
	r.linef("%-22s %10.2f MB  (median of %d passes)", "peak_rss_mb", median(rss), len(rss))
}

// wait is a layer's excess span time in the wide pass over what the
// same amount of work took in the serial pass.
func wait(wide, serial passResult, layer string) float64 {
	n := serial.Layers[layer+"_n"]
	if n == 0 {
		return 0
	}
	return wide.Layers[layer+"_s"] - wide.Layers[layer+"_n"]*serial.Layers[layer+"_s"]/n
}

func (r *report) perLayer(u, s, w passResult) {
	sim := u.Sim
	ipc := 0.0
	if sim.Cycles > 0 {
		ipc = float64(sim.Instructions) / float64(sim.Cycles)
	}
	L := s.Layers
	simS := L["simulate_s"]
	instrPerS, cyclesPerS := 0.0, 0.0
	if simS > 0 && ipc > 0 {
		instrPerS = L["simulated_instr"] / simS
		cyclesPerS = instrPerS / ipc
	}
	r.set("pipeline.simulate_s", "s", simS)
	r.set("pipeline.simulate_p50_us", "us", L["simulate_p50_us"])
	r.set("pipeline.simulate_p95_us", "us", L["simulate_p95_us"])
	r.linef("%-26s p50 %.1f us, p95 %.1f us (n=%d, serial pass)", "pipeline.simulate",
		L["simulate_p50_us"], L["simulate_p95_us"], int(L["simulate_n"]))
	r.set("pipeline.host_instr_per_s", "1/s", instrPerS)
	r.set("pipeline.host_cycles_per_s", "1/s", cyclesPerS)
	r.set("pipeline.simulate_wait_s", "s", wait(w, s, "simulate"))

	r.set("sim.cycles", "count", float64(sim.Cycles))
	r.set("sim.ipc", "1", ipc)
	for b, name := range pipeline.CycleBucketNames() {
		frac := 0.0
		if sim.Cycles > 0 {
			frac = float64(sim.Budget[b]) / float64(sim.Cycles)
		}
		r.set("sim.budget."+name+"_frac", "1", frac)
	}
	r.set("sim.optimum_depth_median", "stages", median(sim.OptDepths))
	r.set("sim.optimum_depth_mean", "stages", mean(sim.OptDepths))

	r.set("core.pack_s", "s", L["pack_s"])
	r.set("core.pack_count", "count", L["pack_n"])
	r.set("core.warmup_s", "s", L["warmup_s"])
	r.set("core.warmup_p95_us", "us", L["warmup_p95_us"])
	r.linef("%-26s p95 %.1f us (n=%d, serial pass)", "core.warmup", L["warmup_p95_us"], int(L["warmup_n"]))
	r.set("core.warmup_wait_s", "s", wait(w, s, "warmup"))
	r.set("core.point_self_s", "s", L["point_self_s"])
	r.set("core.workload_self_s", "s", L["workload_self_s"])
	r.set("core.alloc_mb_per_point", "MB", u.Layers["alloc_mb_per_point"])

	var violations float64
	for _, p := range r.passes {
		violations += p.Layers["violations"]
	}
	r.set("invariant.violations", "count", violations)
	r.set("power.evaluate_s", "s", L["power_s"])
	// Each power span covers the gated and the ungated evaluation.
	r.set("power.evaluate_count", "count", 2*L["power_n"])

	r.set("resultcache.get_s", "s", L["cache_get_s"])
	r.set("resultcache.get_p95_us", "us", L["cache_get_p95_us"])
	r.set("resultcache.put_s", "s", L["cache_put_s"])
	r.set("resultcache.put_p95_us", "us", L["cache_put_p95_us"])
	r.linef("%-26s get p95 %.1f us (n=%d), put p95 %.1f us (n=%d), serial pass", "resultcache",
		L["cache_get_p95_us"], int(L["cache_get_n"]), L["cache_put_p95_us"], int(L["cache_put_n"]))
	r.set("resultcache.hit_ratio", "1", u.Layers["hit_ratio"])
	r.set("resultcache.stores", "count", u.Layers["stores"])
	r.set("resultcache.errors", "count", u.Layers["cache_errors"])

	r.set("fit.extract_s", "s", L["fit_s"])

	U := u.Layers
	r.set("serve.submit_p50_us", "us", U["submit_p50_us"])
	r.set("serve.status_p50_us", "us", U["status_p50_us"])
	r.set("serve.result_p50_us", "us", U["result_p50_us"])
	r.set("serve.queue_wait_p50_ms", "ms", U["queue_wait_p50_ms"])
	r.set("serve.queue_wait_p95_ms", "ms", U["queue_wait_p95_ms"])
	if n := int(U["submit_n"]); n > 0 {
		r.linef("%-26s submit p50 %.1f us (n=%d), status p50 %.1f us (n=%d), result p50 %.1f us (n=%d), client side",
			"serve.requests", U["submit_p50_us"], n, U["status_p50_us"], int(U["status_n"]),
			U["result_p50_us"], int(U["result_n"]))
	}
	if n := int(U["queue_wait_n"]); n > 0 {
		r.linef("%-26s p50 %.3f ms, p95 %.3f ms (n=%d, %d beyond p95); job run p50 %.3f ms (n=%d)",
			"serve.queue_wait", U["queue_wait_p50_ms"], U["queue_wait_p95_ms"], n, beyond(n, 0.95),
			U["job_run_p50_ms"], n)
	}
	r.set("serve.job_run_p50_ms", "ms", U["job_run_p50_ms"])
	r.set("serve.requests_per_study", "count", U["requests_per_study"])
	r.set("serve.result_kb", "KB", U["result_kb"])
	r.set("serve.rejected", "count", U["rejected"])

	// Overhead: time per unit of work, traced (wide) against untraced.
	overhead := 0.0
	if r.workload == "serve-mixed" {
		if w.Studies > 0 && u.Studies > 0 {
			overhead = (w.WallS/float64(w.Studies))/(u.WallS/float64(u.Studies)) - 1
		}
	} else if u.WallS > 0 {
		overhead = w.WallS/u.WallS - 1
	}
	r.set("trace.overhead_frac", "1", overhead)
	r.linef("%-26s %+.4f (one traced against one untraced nproc pass, so host noise of a few percent shows in it)",
		"trace.overhead_frac", overhead)
	r.set("trace.unattributed_frac", "1", L["unattributed_frac"])
	r.linef("%-26s %.4f of the serial pass's %.2f s wall outside every layer (tolerance %.2f)",
		"trace.unattributed_frac", L["unattributed_frac"], s.WallS, unattributedTolerance(r.workload))
	if d := s.Layers["spans_dropped"] + w.Layers["spans_dropped"]; d > 0 {
		r.linef("WARNING: %d spans dropped at the tracer's capacity", int(d))
	}
}

// unattributedTolerance is the share of the serial pass's wall time the
// named layers may leave unexplained before the run counts as failed.
// On the catalog workloads the layers are the program's spans and the
// benchmark's timers around fit/theory (measured at most 0.0001
// unexplained). On serve-mixed only the server's spans count, so the
// client, loopback TCP and net/http outside the handlers are left
// unexplained (measured 0.020-0.027).
func unattributedTolerance(workload string) float64 {
	if workload == "serve-mixed" {
		return 0.05
	}
	return 0.02
}

// check folds every pass's correctness tally, and requires every pass
// of the run (same seed) to have produced the same statistics digest.
func (r *report) check() (tally, string, error) {
	var t tally
	digest := ""
	for _, p := range r.passes {
		t.add(p.Check)
		if p.Digest == "" {
			continue // set-up-only pass
		}
		if digest == "" {
			digest = p.Digest
		} else if p.Digest != digest {
			t.note(fmt.Errorf("statistics digest %s differs from %s in another pass of the same seed", p.Digest, digest))
		}
	}
	if tol := unattributedTolerance(r.workload); r.metrics["trace.unattributed_frac"].Value > tol {
		t.note(fmt.Errorf("serial pass leaves %.4f of wall unattributed (tolerance %.2f)",
			r.metrics["trace.unattributed_frac"].Value, tol))
	}
	if t.Attempted == 0 {
		return t, digest, errors.New("no operation was checked")
	}
	return t, digest, nil
}

func (r *report) print(o runOpts) {
	t, digest, err := r.check()
	if err != nil {
		t.note(err)
	}
	if o.trace != 0 {
		r.set("failed_frac", "1", float64(t.Failed)/float64(max(t.Attempted, 1)))
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s passes=%d\n",
		o.workload, o.seed, o.seconds, o.trace, o.nproc, r.passes[0].GOMAXPROCS, runtime.Version(), len(r.passes))
	fmt.Printf("correctness: attempted=%d failed=%d statistics digest=%s\n", t.Attempted, t.Failed, digest)
	for _, f := range t.Failures {
		fmt.Println("  FAILED:", f)
	}
	fmt.Println(modelAccuracy(r.main[0].Sim, o.workload))
	for _, l := range r.lines {
		fmt.Println(l)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{t.Failed == 0, t.Attempted, t.Failed, r.metrics})
	fmt.Println(string(out))
}

// paperOptimumStages is the paper's reported BIPS³/W optimum: about 8
// stages, a 20 FO4 cycle with t_p = 140 and t_o = 2.5 FO4.
const paperOptimumStages = 8.0

// modelAccuracy states how the simulated optimum compares with the
// paper's reported one — the only reference the model is checked
// against.
func modelAccuracy(s simStats, workload string) string {
	if len(s.OptDepths) == 0 {
		return "model accuracy: no optimum fitted"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "model accuracy: simulated BIPS^3/W (gated) optimum median %.2f, mean %.2f stages over %d sweeps",
		median(s.OptDepths), mean(s.OptDepths), len(s.OptDepths))
	for _, c := range []string{"Legacy", "Modern", "SPECint", "SPECfp"} {
		if v, ok := s.OptByClass[c]; ok {
			fmt.Fprintf(&b, "; %s %.2f", c, v)
		}
	}
	if len(s.TheoryDepths) > 0 {
		fmt.Fprintf(&b, "; fitted theory mean %.2f", mean(s.TheoryDepths))
	}
	fmt.Fprintf(&b, " | paper reports ~%.0f stages (20 FO4)", paperOptimumStages)
	if workload == "serve-mixed" {
		b.WriteString(" | serve-mixed fits 4-depth sweeps, so its optimum is coarse")
	}
	b.WriteString(" | checked only against the paper's reported distribution, not against hardware")
	return b.String()
}
