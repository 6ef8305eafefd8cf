package repro_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/mathx"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/theory"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchOpt keeps the per-figure benchmarks tractable: coarse depth
// grid, short warmed traces, capped catalog. The cmd/experiments
// binary runs the full-fidelity versions.
func benchOpt() experiments.Options {
	return experiments.Options{
		Instructions: 4000,
		Warmup:       10000,
		Depths:       []int{3, 4, 6, 8, 10, 13, 17, 21, 25},
		Workloads:    8,
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	opt := benchOpt()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := e.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// One benchmark per reproduced figure/table (DESIGN.md §5).

func BenchmarkFig1QuarticRoots(b *testing.B)      { benchExperiment(b, "fig1") }
func BenchmarkFig3LatchGrowth(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4aModern(b *testing.B)           { benchExperiment(b, "fig4a") }
func BenchmarkFig4bSPECint(b *testing.B)          { benchExperiment(b, "fig4b") }
func BenchmarkFig4cFloatingPoint(b *testing.B)    { benchExperiment(b, "fig4c") }
func BenchmarkFig5AllMetrics(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6Distribution(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7ClassDistribution(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8LeakageSweep(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig9BetaSweep(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkHeadlineTableH1(b *testing.B)       { benchExperiment(b, "headline") }

// Substrate micro-benchmarks.

// BenchmarkSimulator measures raw engine speed in instructions
// retired per second at the paper's 10-stage design point.
func BenchmarkSimulator(b *testing.B) {
	prof := workload.Representative(workload.SPECInt)
	gen := workload.MustGenerator(prof)
	const n = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reset()
		r, err := pipeline.Run(pipeline.MustDefaultConfig(10), trace.NewLimitStream(gen, n))
		if err != nil {
			b.Fatal(err)
		}
		if r.Instructions != n {
			b.Fatal("short run")
		}
	}
	b.ReportMetric(float64(n), "instrs/op")
}

// BenchmarkSimulatorDeep measures the 25-stage design point, where
// the engine does the most per-cycle stage work.
func BenchmarkSimulatorDeep(b *testing.B) {
	prof := workload.Representative(workload.Legacy)
	gen := workload.MustGenerator(prof)
	const n = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reset()
		if _, err := pipeline.Run(pipeline.MustDefaultConfig(25), trace.NewLimitStream(gen, n)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "instrs/op")
}

// BenchmarkRunTelemetryDisabled is the baseline for the telemetry
// overhead pair: the simulator with no tracer and no metrics registry
// attached, exactly as every existing caller runs it. Compare with
// BenchmarkRunTelemetryEnabled; the disabled path must stay within
// noise (<2%) of the pre-telemetry engine since its only cost is one
// nil check per cycle.
func BenchmarkRunTelemetryDisabled(b *testing.B) {
	prof := workload.Representative(workload.SPECInt)
	gen := workload.MustGenerator(prof)
	const n = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reset()
		if _, err := pipeline.Run(pipeline.MustDefaultConfig(10), trace.NewLimitStream(gen, n)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "instrs/op")
}

// BenchmarkRunTelemetryEnabled runs the identical workload with a
// full event tracer and metrics registry attached, measuring the cost
// of cycle-level event capture.
func BenchmarkRunTelemetryEnabled(b *testing.B) {
	prof := workload.Representative(workload.SPECInt)
	gen := workload.MustGenerator(prof)
	const n = 10000
	reg := telemetry.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reset()
		cfg := pipeline.MustDefaultConfig(10)
		cfg.Tracer = pipeline.NewTracer(0)
		r, err := pipeline.Run(cfg, trace.NewLimitStream(gen, n))
		if err != nil {
			b.Fatal(err)
		}
		r.PublishMetrics(reg)
		if cfg.Tracer.Len() == 0 || reg.Counter("pipeline.instructions").Value() == 0 {
			b.Fatal("telemetry not recorded")
		}
	}
	b.ReportMetric(float64(n), "instrs/op")
}

// BenchmarkRunInvariantsDisabled is the baseline for the invariant
// overhead pair: no Recorder attached. Both benchmarks of the pair
// feed a generator stream, so they include Run's drain of the stream
// into a packed trace; internal/pipeline's BenchmarkEngineOptimized
// and BenchmarkEngineOptimizedInvariants are the pre-packed pair.
// Compare with BenchmarkRunInvariantsEnabled for the cost of attaching
// the conformance engine.
func BenchmarkRunInvariantsDisabled(b *testing.B) {
	prof := workload.Representative(workload.SPECInt)
	gen := workload.MustGenerator(prof)
	const n = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reset()
		if _, err := pipeline.Run(pipeline.MustDefaultConfig(10), trace.NewLimitStream(gen, n)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "instrs/op")
}

// BenchmarkRunInvariantsEnabled runs the identical workload with the
// conformance engine attached: every stepped cycle's
// occupancy/cursor/window laws plus the end-of-run conservation audit.
// Like its pair it feeds a generator stream, so it includes the pack.
func BenchmarkRunInvariantsEnabled(b *testing.B) {
	prof := workload.Representative(workload.SPECInt)
	gen := workload.MustGenerator(prof)
	const n = 10000
	rec := invariant.New(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reset()
		cfg := pipeline.MustDefaultConfig(10)
		cfg.Invariants = rec
		if _, err := pipeline.Run(cfg, trace.NewLimitStream(gen, n)); err != nil {
			b.Fatal(err)
		}
	}
	if !rec.OK() {
		b.Fatalf("clean benchmark run recorded %d violations", rec.Count())
	}
	b.ReportMetric(float64(n), "instrs/op")
}

// BenchmarkGenerator measures synthetic trace generation throughput.
func BenchmarkGenerator(b *testing.B) {
	gen := workload.MustGenerator(workload.Representative(workload.Modern))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := gen.Next(); !ok {
			b.Fatal("stream ended")
		}
	}
}

// BenchmarkCacheAccess measures the L1/L2 hierarchy lookup path.
func BenchmarkCacheAccess(b *testing.B) {
	h := cache.MustHierarchy(cache.DefaultHierarchy())
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 22))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i&4095])
	}
}

// BenchmarkPredictor measures tournament predict+update.
func BenchmarkPredictor(b *testing.B) {
	p := branch.NewTournament(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x4000 + (i&255)*4)
		taken := i&3 != 0
		p.Predict(pc)
		p.Update(pc, taken)
	}
}

// BenchmarkTraceCodec measures binary trace encode+decode round trips.
func BenchmarkTraceCodec(b *testing.B) {
	gen := workload.MustGenerator(workload.Representative(workload.SPECInt))
	ins := make([]isa.Instruction, 1000)
	for i := range ins {
		ins[i], _ = gen.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := trace.WriteAll(&buf, ins); err != nil {
			b.Fatal(err)
		}
		out, err := trace.ReadAll(&buf)
		if err != nil || len(out) != len(ins) {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ins)), "instrs/op")
}

// BenchmarkTheoryOptimum measures the exact numeric optimizer.
func BenchmarkTheoryOptimum(b *testing.B) {
	p := theory.Default()
	for i := 0; i < b.N; i++ {
		if o := p.OptimumExact(); !o.Interior {
			b.Fatal("lost the interior optimum")
		}
	}
}

// BenchmarkQuarticRoots measures closed-form quartic root extraction
// on the paper's Eq. 5.
func BenchmarkQuarticRoots(b *testing.B) {
	q := theory.Default().DerivativeQuartic()
	for i := 0; i < b.N; i++ {
		if roots := q.RealRoots(); len(roots) != 4 {
			b.Fatal("root structure changed")
		}
	}
}

// BenchmarkCubicPeakFit measures the paper's cubic least-squares
// optimum-extraction analysis.
func BenchmarkCubicPeakFit(b *testing.B) {
	var xs, ys []float64
	for d := 2; d <= 25; d++ {
		x := float64(d)
		xs = append(xs, x)
		ys = append(ys, 5-0.05*(x-8)*(x-8))
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := mathx.CubicPeak(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerEvaluate measures the per-run power-model evaluation.
func BenchmarkPowerEvaluate(b *testing.B) {
	gen := workload.MustGenerator(workload.Representative(workload.SPECInt))
	r, err := pipeline.Run(pipeline.MustDefaultConfig(10), trace.NewLimitStream(gen, 5000))
	if err != nil {
		b.Fatal(err)
	}
	m := power.DefaultModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Evaluate(r, true).Total() <= 0 {
			b.Fatal("bad power")
		}
	}
}

// Ablation and extension benchmarks (DESIGN.md §5 extended index).

func BenchmarkFig2Structure(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkAblationOOO(b *testing.B)       { benchExperiment(b, "abl-ooo") }
func BenchmarkAblationPredictor(b *testing.B) { benchExperiment(b, "abl-predictor") }
func BenchmarkAblationPrefetch(b *testing.B)  { benchExperiment(b, "abl-prefetch") }
func BenchmarkAblationWidth(b *testing.B)     { benchExperiment(b, "abl-width") }
func BenchmarkAblationMemSys(b *testing.B)    { benchExperiment(b, "abl-memsys") }
func BenchmarkAblationRatio(b *testing.B)     { benchExperiment(b, "abl-ratio") }
func BenchmarkPhaseBoundary(b *testing.B)     { benchExperiment(b, "phase") }
func BenchmarkPowerCapFrontier(b *testing.B)  { benchExperiment(b, "powercap") }

// BenchmarkSimulatorOOO measures the out-of-order engine.
func BenchmarkSimulatorOOO(b *testing.B) {
	prof := workload.Representative(workload.SPECInt)
	gen := workload.MustGenerator(prof)
	const n = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Reset()
		cfg := pipeline.MustDefaultConfig(10)
		cfg.OutOfOrder = true
		if _, err := pipeline.Run(cfg, trace.NewLimitStream(gen, n)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "instrs/op")
}

func BenchmarkValidateApproximations(b *testing.B) { benchExperiment(b, "validate") }

func BenchmarkAblationQueues(b *testing.B) { benchExperiment(b, "abl-queues") }

func BenchmarkAblationWrongPath(b *testing.B) { benchExperiment(b, "abl-wrongpath") }

func BenchmarkMachinePresets(b *testing.B) { benchExperiment(b, "machines") }
