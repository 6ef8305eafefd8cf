package pipeline

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/invariant"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden step traces with current output")

// The golden step-trace tier. The engine differential in difftest
// proves the skip-ahead engine bit-identical to per-cycle stepping,
// but its failure mode is an end-of-run "payloads differ" — a
// checksum, not a diagnosis. These tests pin a human-readable artifact
// instead: the per-cycle event log of the reference engine for the
// opening cycles of the run, followed by the complete end-of-run
// accounting rendered field by field. The same accounting is then
// re-rendered from a skip-ahead run of the identical design point, so
// a skip-ahead bug fails with a named-counter line diff ("stall.dep:
// 412 vs 409") pointing at the drifted quantity, while an intentional
// behavior change is reviewed as a golden-file diff under -update.
//
// Workloads: one per bottleneck the skip-ahead legality argument
// reasons about separately — branch-resolution stalls (si95-gcc:
// SPEC integer control flow with the least-biased branch population),
// instruction-fetch stalls (web-appserver: the modern-application
// class whose large instruction footprint the paper singles out as
// icache-bound), and dependency stalls (oltp-bank: legacy OLTP with
// the catalog's tightest dependence chains, DepP≈0.93). Two depths
// bracket the design space: shallow (4) and deep (18).

// goldenTraceCycles bounds the rendered event log: enough cycles to
// show fetch/issue/retire interleaving, misses and redirects in every
// regime without making review diffs unreadable.
const goldenTraceCycles = 192

// goldenInstructions keeps each run small; the accounting section
// still covers the full run.
const goldenInstructions = 600

var goldenCases = []struct {
	bottleneck string
	workload   string
}{
	{"branch-heavy", "si95-gcc"},
	{"icache-bound", "web-appserver"},
	{"dependency-bound", "oltp-bank"},
}

var goldenDepths = []int{4, 18}

// goldenConfig is the pinned machine for the golden tier: the default
// design point plus a small instruction cache, so instruction-fetch
// stalls — one of the three bottlenecks the tier exists to show — are
// live in the log.
func goldenConfig(t *testing.T, depth int) Config {
	t.Helper()
	cfg, err := DefaultConfig(depth)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ICache = cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2}
	cfg.ICacheMissFO4 = 90
	return cfg
}

func TestGoldenStepTraces(t *testing.T) {
	for _, tc := range goldenCases {
		prof, ok := workload.ByName(tc.workload)
		if !ok {
			t.Fatalf("workload %s missing from catalog", tc.workload)
		}
		for _, depth := range goldenDepths {
			name := fmt.Sprintf("%s/%s/d%d", tc.bottleneck, tc.workload, depth)
			t.Run(name, func(t *testing.T) {
				// Reference run: per-cycle engine with the tracer armed.
				refCfg := goldenConfig(t, depth)
				refCfg.Engine = EnginePerCycle
				tr := NewTracer(1 << 17)
				refCfg.Tracer = tr
				ref, err := Run(refCfg, trace.NewLimitStream(workload.MustGenerator(prof), goldenInstructions))
				if err != nil {
					t.Fatal(err)
				}
				if tr.Dropped() != 0 {
					t.Fatalf("tracer dropped %d events; raise its capacity", tr.Dropped())
				}

				var b strings.Builder
				fmt.Fprintf(&b, "# golden step trace: %s (%s), depth %d, %d instructions\n",
					tc.workload, tc.bottleneck, depth, goldenInstructions)
				fmt.Fprintf(&b, "# first %d cycles of per-cycle reference stepping, then end-of-run accounting\n",
					goldenTraceCycles)
				b.WriteString(renderStepLog(tr, goldenTraceCycles))
				b.WriteString(renderAccounting(ref))
				got := b.String()

				path := filepath.Join("testdata", "golden",
					fmt.Sprintf("steps_%s_d%d.txt", tc.workload, depth))
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				} else {
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden file (run with -update to create): %v", err)
					}
					if diff := lineDiff(string(want), got); diff != "" {
						t.Errorf("step trace differs from %s (run with -update after intentional changes):\n%s",
							path, diff)
					}
				}

				// Skip-ahead run of the same design point, on the fused
				// engine with an invariant recorder attached: its
				// accounting must reproduce the reference's line for line
				// and record no violation. A skip-ahead bug fails here
				// with the drifted counter named in the diff.
				packed, err := trace.PackStream(workload.MustGenerator(prof), goldenInstructions)
				if err != nil {
					t.Fatal(err)
				}
				optCfg := goldenConfig(t, depth)
				optCfg.Engine = EngineAuto
				rec := invariant.New(nil)
				optCfg.Invariants = rec
				opt, err := Run(optCfg, packed.Stream())
				if err != nil {
					t.Fatal(err)
				}
				if !rec.OK() {
					t.Errorf("fused engine recorded %d violations, first: %v", rec.Count(), rec.Violations()[0])
				}
				if diff := lineDiff(renderAccounting(ref), renderAccounting(opt)); diff != "" {
					t.Errorf("skip-ahead accounting drifted from the per-cycle reference:\n%s", diff)
				}
			})
		}
	}
}

// renderStepLog renders the traced events of cycles [0, limit) as one
// line per event, grouped naturally by cycle (events are emitted in
// cycle order).
func renderStepLog(tr *telemetry.Tracer, limit uint64) string {
	var b strings.Builder
	for _, ev := range tr.Events() {
		if ev.Cycle >= limit {
			break
		}
		switch ev.Kind {
		case telemetry.KindFetch, telemetry.KindIssue, telemetry.KindRetire:
			fmt.Fprintf(&b, "c%06d %-6s seq=%-5d pc=%#07x %s\n",
				ev.Cycle, ev.Kind, ev.Arg, ev.PC, classLabel(int(ev.Detail)))
		case telemetry.KindStall:
			fmt.Fprintf(&b, "c%06d stall  %s\n", ev.Cycle, StallCause(ev.Detail))
		case telemetry.KindGate:
			fmt.Fprintf(&b, "c%06d gate   %s\n", ev.Cycle, unitMask(ev.Arg))
		}
	}
	return b.String()
}

func classLabel(c int) string {
	names := classNames()
	if c >= 0 && c < len(names) {
		return names[c]
	}
	return fmt.Sprintf("class%d", c)
}

// unitMask renders a gate bitmask as pipe-separated unit names in
// Unit order.
func unitMask(mask uint64) string {
	if mask == 0 {
		return "-"
	}
	var parts []string
	for u := 0; u < NumUnits; u++ {
		if mask&(1<<u) != 0 {
			parts = append(parts, Unit(u).String())
		}
	}
	return strings.Join(parts, "|")
}

// renderAccounting renders every end-of-run quantity the engine
// differential compares, one named line each, so two runs diff by
// counter name rather than by opaque payload bytes.
func renderAccounting(r *Result) string {
	var b strings.Builder
	b.WriteString("-- accounting --\n")
	fmt.Fprintf(&b, "instructions        = %d\n", r.Instructions)
	fmt.Fprintf(&b, "cycles              = %d\n", r.Cycles)
	fmt.Fprintf(&b, "issue_cycles        = %d\n", r.IssueCycles)
	fmt.Fprintf(&b, "branches            = %d taken=%d predicted=%d\n",
		r.Branches, r.TakenBranches, r.PredictorCorrect)
	fmt.Fprintf(&b, "mem_ops             = loads=%d rx=%d stores=%d\n",
		r.LoadCount, r.RXCount, r.StoreCount)
	fmt.Fprintf(&b, "misses              = l1=%d icache=%d btb=%d\n",
		r.L1Misses, r.ICacheMisses, r.BTBMisses)
	fmt.Fprintf(&b, "window_peak         = %d\n", r.MaxWindowOccupied)
	fmt.Fprintf(&b, "hazards             = mispred=%d l2=%d mem=%d dep_ep=%d fp_ep=%d agen_ep=%d\n",
		r.Hazards.BranchMispredicts, r.Hazards.LoadL2Hits, r.Hazards.LoadMemAccesses,
		r.Hazards.DepEpisodes, r.Hazards.FPEpisodes, r.Hazards.AgenEpisodes)
	for c := 0; c < NumStallCauses; c++ {
		fmt.Fprintf(&b, "stall.%-13s = %d\n", StallCause(c), r.StallCycles[c])
	}
	for k := 0; k < NumCycleBuckets; k++ {
		fmt.Fprintf(&b, "budget.%-12s = %d\n", CycleBucket(k), r.CycleBudget[k])
	}
	for u := 0; u < NumUnits; u++ {
		fmt.Fprintf(&b, "unit.%-14s = ops=%d active=%d\n", Unit(u), r.UnitOps[u], r.UnitActive[u])
	}
	for w, n := range r.IssueHist {
		fmt.Fprintf(&b, "issue_width.%d       = %d\n", w, n)
	}
	return b.String()
}

// lineDiff returns a readable unified-style excerpt of the first few
// differing lines between two renderings ("" when equal).
func lineDiff(want, got string) string {
	if want == got {
		return ""
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(wl), len(gl)) && shown < 8; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  want: %s\n  got:  %s\n", i+1, w, g)
		shown++
	}
	if shown == 8 {
		b.WriteString("  (further differences elided)\n")
	}
	return b.String()
}
