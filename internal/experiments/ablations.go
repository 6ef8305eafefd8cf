package experiments

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/theory"
	"repro/internal/workload"
)

// Ablation experiments: the design-choice studies DESIGN.md calls out
// beyond the paper's figures. Each isolates one mechanism of the
// simulator or the model and reports how the optimum pipeline depth
// responds.

// machineWith returns a Machine builder applying fn to the default
// configuration at each depth.
func machineWith(fn func(*pipeline.Config)) func(int) (pipeline.Config, error) {
	return func(depth int) (pipeline.Config, error) {
		cfg, err := pipeline.DefaultConfig(depth)
		if err != nil {
			return cfg, err
		}
		fn(&cfg)
		return cfg, nil
	}
}

// sweepOptimum runs one workload under a machine variant and returns
// its clock-gated BIPS³/W optimum plus key run statistics at the
// reference depth.
func sweepOptimum(opt Options, prof workload.Profile, fn func(*pipeline.Config)) (core.Optimum, *core.Sweep, error) {
	cfg := opt.study()
	if fn != nil {
		cfg.Machine = machineWith(fn)
	}
	sweep, err := core.RunSweep(cfg, prof)
	if err != nil {
		return core.Optimum{}, nil, err
	}
	o, err := sweep.FindOptimum(metrics.BIPS3PerWatt, true)
	return o, sweep, err
}

// predictorKinds are the abl-predictor variants, weakest first.
var predictorKinds = []branch.Kind{branch.KindStatic, branch.KindBimodal, branch.KindGShare, branch.KindTournament}

// predictorVariant swaps the baseline's predictor for a 2^12-entry
// predictor of the given kind (abl-predictor).
func predictorVariant(kind branch.Kind) func(*pipeline.Config) {
	return func(c *pipeline.Config) {
		c.Predictor = branch.PredictorConfig{Kind: kind, Bits: 12}
	}
}

// prefetchDegrees are the abl-prefetch variants.
var prefetchDegrees = []int{0, 1, 2, 4}

// prefetchVariant sets the baseline hierarchy's next-line prefetch
// degree (abl-prefetch).
func prefetchVariant(degree int) func(*pipeline.Config) {
	return func(c *pipeline.Config) {
		c.Hierarchy.PrefetchDegree = degree
	}
}

// memSysVariants are the abl-memsys machines; a nil fn is the
// baseline.
var memSysVariants = []struct {
	name string
	fn   func(*pipeline.Config)
}{
	{"baseline (blocking, perfect I-fetch)", nil},
	{"non-blocking data misses (MSHRs)", func(c *pipeline.Config) {
		c.NonBlockingCache = true
	}},
	{"16 KiB I-cache", func(c *pipeline.Config) {
		c.ICache = cache.Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 2}
		c.ICacheMissFO4 = 90
	}},
	{"64 KiB I-cache", func(c *pipeline.Config) {
		c.ICache = cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4}
		c.ICacheMissFO4 = 90
	}},
}

// AblationOOO compares in-order and out-of-order execution, the
// paper's §3 modeling choice: "Hartstein and Puzak explored both
// in-order and out-of-order models and found only minor differences
// in the pipeline depth optimization."
func AblationOOO(opt Options) (*Report, error) {
	r := &Report{
		ID:     "abl-ooo",
		Title:  "In-order vs out-of-order execution: optimum depth and IPC",
		Header: []string{"workload", "in-order opt", "OOO opt", "in-order IPC@10", "OOO IPC@10"},
	}
	maxIntShift, fpShift := 0.0, 0.0
	for _, cls := range []workload.Class{workload.Legacy, workload.Modern, workload.SPECInt, workload.SPECFP} {
		prof := workload.Representative(cls)
		inOpt, inSweep, err := sweepOptimum(opt, prof, nil)
		if err != nil {
			return nil, err
		}
		oooOpt, oooSweep, err := sweepOptimum(opt, prof, func(c *pipeline.Config) { c.OutOfOrder = true })
		if err != nil {
			return nil, err
		}
		ipc := func(s *core.Sweep) float64 {
			if p, ok := s.PointAt(10); ok {
				return p.Result.IPC()
			}
			return 0
		}
		r.Rows = append(r.Rows, []string{
			prof.Name,
			fmt.Sprintf("%.1f", inOpt.Depth), fmt.Sprintf("%.1f", oooOpt.Depth),
			fmt.Sprintf("%.2f", ipc(inSweep)), fmt.Sprintf("%.2f", ipc(oooSweep)),
		})
		shift := absF(oooOpt.Depth - inOpt.Depth)
		if cls == workload.SPECFP {
			fpShift = shift
		} else if shift > maxIntShift {
			maxIntShift = shift
		}
	}
	r.AddFinding("largest integer-class optimum shift from out-of-order execution: %.1f stages", maxIntShift)
	r.AddFinding("paper: 'only minor differences in the pipeline depth optimization' (integer workloads)")
	r.AddFinding("floating-point shift: %.1f stages — once renamed, the serialized FPU no longer head-blocks and the streaming workload exploits depth freely", fpShift)
	return r, nil
}

// AblationPredictor varies the branch predictor: worse prediction
// means more mispredict hazards and shallower optima.
func AblationPredictor(opt Options) (*Report, error) {
	prof := workload.Representative(workload.SPECInt)
	r := &Report{
		ID:     "abl-predictor",
		Title:  fmt.Sprintf("Branch predictor ablation (%s)", prof.Name),
		Header: []string{"predictor", "mispredict@10", "optimum (stages)", "FO4"},
	}
	type row struct {
		kind branch.Kind
		opt  core.Optimum
		mp   float64
	}
	var rows []row
	for _, kind := range predictorKinds {
		o, sweep, err := sweepOptimum(opt, prof, predictorVariant(kind))
		if err != nil {
			return nil, err
		}
		mp := 0.0
		if pt, ok := sweep.PointAt(10); ok {
			mp = pt.Result.MispredictRate()
		}
		rows = append(rows, row{kind, o, mp})
		r.Rows = append(r.Rows, []string{
			string(kind), fmt.Sprintf("%.1f%%", 100*mp),
			fmt.Sprintf("%.1f", o.Depth), fmt.Sprintf("%.1f", o.FO4),
		})
	}
	static, tournament := rows[0], rows[len(rows)-1]
	r.AddFinding("static → tournament prediction cut the mispredict rate %.1f%% → %.1f%%",
		100*static.mp, 100*tournament.mp)
	r.AddFinding("optimum moved %.1f → %.1f stages — branch refill is a minor share of this machine's depth cost, so the optimum is insensitive",
		static.opt.Depth, tournament.opt.Depth)
	return r, nil
}

// AblationPrefetch varies the next-line prefetch degree on the
// streaming floating-point workload.
func AblationPrefetch(opt Options) (*Report, error) {
	prof := workload.Representative(workload.SPECFP)
	r := &Report{
		ID:     "abl-prefetch",
		Title:  fmt.Sprintf("Prefetch-degree ablation (%s)", prof.Name),
		Header: []string{"degree", "L1 misses@10", "BIPS@10", "optimum (stages)"},
	}
	var first, last core.Optimum
	for i, degree := range prefetchDegrees {
		o, sweep, err := sweepOptimum(opt, prof, prefetchVariant(degree))
		if err != nil {
			return nil, err
		}
		misses, bips := uint64(0), 0.0
		if pt, ok := sweep.PointAt(10); ok {
			misses, bips = pt.Result.L1Misses, pt.Result.BIPS()
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(degree), fmt.Sprint(misses),
			fmt.Sprintf("%.5f", bips), fmt.Sprintf("%.1f", o.Depth),
		})
		if i == 0 {
			first = o
		}
		last = o
	}
	r.AddFinding("prefetching moves the streaming workload's optimum %.1f → %.1f stages",
		first.Depth, last.Depth)
	r.AddFinding("fixed-time memory stalls cap deep pipelines; removing them frees the optimum")
	return r, nil
}

// AblationWidth varies the machine's superscalar width. Wider issue
// raises α, which the theory says shortens the optimum.
func AblationWidth(opt Options) (*Report, error) {
	prof := workload.Representative(workload.SPECInt)
	r := &Report{
		ID:     "abl-width",
		Title:  fmt.Sprintf("Issue-width ablation (%s)", prof.Name),
		Header: []string{"width", "alpha@10", "optimum (stages)", "FO4"},
	}
	var depths []float64
	for _, w := range []int{2, 4, 8} {
		w := w
		o, sweep, err := sweepOptimum(opt, prof, func(c *pipeline.Config) {
			c.Width = w
			if w > 4 {
				c.AgenWidth, c.CachePorts, c.BranchWidth = 4, 4, 2
				c.ExecQCap = 32
			}
		})
		if err != nil {
			return nil, err
		}
		alpha := 0.0
		if pt, ok := sweep.PointAt(10); ok {
			alpha = pt.Result.Alpha()
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(w), fmt.Sprintf("%.2f", alpha),
			fmt.Sprintf("%.1f", o.Depth), fmt.Sprintf("%.1f", o.FO4),
		})
		depths = append(depths, o.Depth)
	}
	r.AddFinding("width 2 → 8 moves the optimum %.1f → %.1f stages (theory §2.2: larger α ⇒ shorter)",
		depths[0], depths[len(depths)-1])
	return r, nil
}

// AblationRatio sweeps the technology ratio t_p/t_o in the analytic
// model (§2.2: more logic per latch overhead, more pipelining).
func AblationRatio(Options) (*Report, error) {
	p := theory.Default()
	ratios := []float64{20, 35, 56, 80, 120, 180}
	opts := p.RatioSweep(ratios)
	r := &Report{
		ID:     "abl-ratio",
		Title:  "Optimum vs technology ratio t_p/t_o (theory)",
		Header: []string{"tp/to", "optimum (stages)", "FO4/stage"},
	}
	for i, ratio := range ratios {
		r.Rows = append(r.Rows, []string{
			fmtF(ratio), fmtF(opts[i].Depth), fmtF(opts[i].FO4),
		})
	}
	r.AddFinding("optimum increases monotonically with t_p/t_o: %v",
		theory.RatioTrendIncreasing(opts))
	r.AddFinding("t_p/t_o 20 → 180 moves the optimum %.1f → %.1f stages",
		opts[0].Depth, opts[len(opts)-1].Depth)
	return r, nil
}

// Phase maps the (β, m) existence boundary of pipelined optima — the
// two exponents the paper's summary singles out as governing the
// whole problem.
func Phase(Options) (*Report, error) {
	p := theory.Default()
	betas := []float64{0.8, 1.0, 1.1, 1.3, 1.5, 1.8, 2.0}
	bound := p.ExistenceBoundary(betas)
	r := &Report{
		ID:     "phase",
		Title:  "Existence boundary: minimal metric exponent m for a pipelined optimum",
		Header: []string{"beta", "minimal m", "analytic beta+eta"},
	}
	for i, b := range betas {
		r.Rows = append(r.Rows, []string{
			fmtF(b), fmtF(bound[i]), fmtF(b + 0.99),
		})
	}
	idx13 := 3 // β = 1.3 entry
	r.AddFinding("at β = 1.3: pipelined optima require m > %.2f — BIPS/W and BIPS²/W excluded, BIPS³/W allowed (paper)",
		bound[idx13])
	r.AddFinding("boundary crosses m = 3 near β = 2: 'if β becomes larger than 2, the theory points to the optimum as a single stage design' (paper §5)")
	return r, nil
}

// PowerCap evaluates the paper's alternative design strategy: best
// performance under a package power budget, on the same model.
func PowerCap(Options) (*Report, error) {
	p := theory.Default()
	ref := p.TotalPower(7) // budget reference: the BIPS³/W-optimal design
	mults := []float64{0.5, 1, 2, 4, 8, 16, 32}
	caps := make([]float64, len(mults))
	for i, m := range mults {
		caps[i] = ref * m
	}
	fr := p.PowerFrontier(caps)
	r := &Report{
		ID:     "powercap",
		Title:  "Power-constrained design frontier: max BIPS s.t. P ≤ cap (theory)",
		Header: []string{"cap (×P(7))", "depth", "FO4", "BIPS", "power used"},
	}
	for i, pt := range fr {
		if !pt.Feasible {
			r.Rows = append(r.Rows, []string{fmtF(mults[i]), "infeasible", "", "", ""})
			continue
		}
		r.Rows = append(r.Rows, []string{
			fmtF(mults[i]), fmtF(pt.Depth), fmtF(pt.FO4), fmtF(pt.BIPS), fmtF(pt.Power),
		})
	}
	m3 := p.OptimumExact()
	r.AddFinding("BIPS^3/W metric optimum: %.1f stages; the frontier crosses it near cap ≈ 1×", m3.Depth)
	r.AddFinding("as the budget grows the frontier approaches the performance-only optimum %.1f stages",
		p.PerfOnlyOptimum())
	return r, nil
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// AblationMemSys varies the memory system: blocking vs non-blocking
// (MSHR) data misses, and an instruction cache versus the baseline
// perfect front end — on the legacy workload, whose large code and
// data footprints stress both.
func AblationMemSys(opt Options) (*Report, error) {
	prof := workload.Representative(workload.Legacy)
	r := &Report{
		ID:     "abl-memsys",
		Title:  fmt.Sprintf("Memory-system ablation (%s)", prof.Name),
		Header: []string{"variant", "IPC@10", "optimum (stages)", "FO4"},
	}
	var base, mshr core.Optimum
	for i, v := range memSysVariants {
		o, sweep, err := sweepOptimum(opt, prof, v.fn)
		if err != nil {
			return nil, err
		}
		ipc := 0.0
		if pt, ok := sweep.PointAt(10); ok {
			ipc = pt.Result.IPC()
		}
		r.Rows = append(r.Rows, []string{
			v.name, fmt.Sprintf("%.2f", ipc),
			fmt.Sprintf("%.1f", o.Depth), fmt.Sprintf("%.1f", o.FO4),
		})
		if i == 0 {
			base = o
		}
		if i == 1 {
			mshr = o
		}
	}
	r.AddFinding("non-blocking misses move the optimum %.1f → %.1f stages (overlapped memory time behaves like removed constant cost)",
		base.Depth, mshr.Depth)
	r.AddFinding("instruction-cache misses add constant-time front-end stalls, pressing the optimum shallow")
	return r, nil
}

// AblationQueues varies the decoupling-queue capacities. Queues buffer
// the access-decoupled address path against the in-order issue stage;
// starving them re-couples the pipeline and costs ILP.
func AblationQueues(opt Options) (*Report, error) {
	prof := workload.Representative(workload.Modern)
	r := &Report{
		ID:     "abl-queues",
		Title:  fmt.Sprintf("Decoupling-queue capacity ablation (%s)", prof.Name),
		Header: []string{"agenQ/execQ", "IPC@10", "optimum (stages)"},
	}
	type variant struct{ aq, eq int }
	var first, last float64
	for i, v := range []variant{{2, 4}, {4, 8}, {8, 16}, {16, 32}} {
		v := v
		o, sweep, err := sweepOptimum(opt, prof, func(c *pipeline.Config) {
			c.AgenQCap, c.ExecQCap = v.aq, v.eq
		})
		if err != nil {
			return nil, err
		}
		ipc := 0.0
		if pt, ok := sweep.PointAt(10); ok {
			ipc = pt.Result.IPC()
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d/%d", v.aq, v.eq),
			fmt.Sprintf("%.2f", ipc), fmt.Sprintf("%.1f", o.Depth),
		})
		if i == 0 {
			first = ipc
		}
		last = ipc
	}
	r.AddFinding("starved queues (2/4) vs ample (16/32): IPC@10 %.2f → %.2f", first, last)
	r.AddFinding("queue capacity mostly moves throughput, not the optimum's position: the depth-scaled hazard structure is unchanged")
	return r, nil
}

// AblationWrongPath toggles wrong-path front-end energy modeling:
// charging fetch/decode through misprediction-recovery windows adds
// power without changing timing, pressing the optimum slightly
// shallower on mispredict-exposed workloads.
func AblationWrongPath(opt Options) (*Report, error) {
	prof := workload.Representative(workload.Legacy)
	r := &Report{
		ID:     "abl-wrongpath",
		Title:  fmt.Sprintf("Wrong-path fetch energy ablation (%s)", prof.Name),
		Header: []string{"wrong-path energy", "gated W@10", "optimum (stages)"},
	}
	var depths []float64
	for _, enabled := range []bool{false, true} {
		enabled := enabled
		o, sweep, err := sweepOptimum(opt, prof, func(c *pipeline.Config) {
			c.WrongPathActivity = enabled
		})
		if err != nil {
			return nil, err
		}
		watts := 0.0
		if pt, ok := sweep.PointAt(10); ok {
			watts = pt.GatedPower.Total()
		}
		label := "off"
		if enabled {
			label = "on"
		}
		r.Rows = append(r.Rows, []string{
			label, fmt.Sprintf("%.3g", watts), fmt.Sprintf("%.1f", o.Depth),
		})
		depths = append(depths, o.Depth)
	}
	r.AddFinding("modeling wrong-path switching moves the optimum %.1f → %.1f stages (more power per mispredict ⇒ shallower)",
		depths[0], depths[1])
	return r, nil
}

// Machines compares the BIPS³/W optimum across machine presets on one
// workload — the cross-microarchitecture study in the spirit of the
// companion 2002 paper's four-machine validation.
func Machines(opt Options) (*Report, error) {
	prof := workload.Representative(workload.SPECInt)
	r := &Report{
		ID:     "machines",
		Title:  fmt.Sprintf("Optimum across machine presets (%s)", prof.Name),
		Header: []string{"machine", "alpha@10", "IPC@10", "BIPS^3/W optimum", "BIPS optimum"},
	}
	for _, name := range pipeline.Presets() {
		name := name
		cfg := opt.study()
		cfg.Machine = func(depth int) (pipeline.Config, error) {
			return pipeline.PresetConfig(pipeline.Preset(name), depth)
		}
		sweep, err := core.RunSweep(cfg, prof)
		if err != nil {
			return nil, err
		}
		m3, err := sweep.FindOptimum(metrics.BIPS3PerWatt, true)
		if err != nil {
			return nil, err
		}
		perf, err := sweep.FindOptimum(metrics.BIPS, true)
		if err != nil {
			return nil, err
		}
		alpha, ipc := 0.0, 0.0
		if pt, ok := sweep.PointAt(10); ok {
			alpha, ipc = pt.Result.Alpha(), pt.Result.IPC()
		}
		perfPos := fmt.Sprintf("%.1f", perf.Depth)
		if !perf.Interior {
			perfPos += " (edge)"
		}
		r.Rows = append(r.Rows, []string{
			name, fmt.Sprintf("%.2f", alpha), fmt.Sprintf("%.2f", ipc),
			fmt.Sprintf("%.1f", m3.Depth), perfPos,
		})
	}
	r.AddFinding("every machine's BIPS^3/W optimum sits far below its performance optimum")
	r.AddFinding("narrow (low α) optimizes deeper than the baseline, per the theory's α-dependence; the wide machine's MSHRs and aggressive prefetch remove constant-time memory cost and push it deeper despite its higher α")
	return r, nil
}
