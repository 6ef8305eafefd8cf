package pipeline

import (
	"errors"
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/invariant"
	"repro/internal/telemetry"
)

// EngineKind selects whether the one cycle body fast-forwards stall
// spans. Both settings are bit-identical by contract — the difftest
// bit-identity tier runs the full workload catalog both ways and
// requires byte-equal results — so the choice is a throughput knob,
// never a semantic one.
type EngineKind int

const (
	// EngineAuto (the zero value) turns on closed-form skip-ahead over
	// provably inert stall spans, unless a cycle tracer is attached or
	// the out-of-order window is on. Invariant checks and activity
	// sampling keep it on.
	EngineAuto EngineKind = iota
	// EnginePerCycle steps every cycle: the same body with skip-ahead
	// off, the reference the bit-identity tier diffs EngineAuto
	// against.
	EnginePerCycle
)

// Config specifies one simulation: the machine geometry, depth plan,
// technology constants, and value descriptions of the predictor, BTB
// and caches. It holds no model state: every Run builds its models
// cold from the descriptions (see Models), so a Config — and every copy
// of it — gives the same Result each time it is run.
type Config struct {
	// Machine geometry.
	Width       int // decode/issue/retire width (the paper's 4-issue machine)
	AgenWidth   int // address-generation units
	CachePorts  int // data-cache ports (also bounds memory issues per cycle)
	BranchWidth int // branches issued per cycle
	AgenQCap    int // address-queue capacity (instructions)
	ExecQCap    int // execution-queue capacity (instructions)
	WindowCap   int // maximum in-flight instructions (completion buffer)

	// OutOfOrder selects out-of-order issue with register renaming
	// (the paper's machine supports both; its study uses in-order,
	// finding "only minor differences" — reproduce that with the
	// abl-ooo experiment). A one-stage rename unit is inserted after
	// decode; the issue stage selects ready instructions oldest-first
	// from the execution-queue window.
	OutOfOrder bool

	// Depth plan (build with PlanDepth).
	Plan DepthPlan

	// Technology, used to convert fixed-FO4 miss latencies to cycles.
	TP float64 // total logic delay, FO4
	TO float64 // per-stage latch overhead, FO4

	// Model descriptions. A zero description means the model is
	// absent: a zero Predictor is perfect prediction, a zero Hierarchy
	// a perfect (always-hit) cache, and a zero BTB perfect target
	// provision (taken redirects then cost only the RedirectBubble).
	Predictor branch.PredictorConfig
	BTB       branch.BTBConfig
	Hierarchy cache.HierarchyConfig

	// BTBMissBubbles is the extra fetch-hold, in cycles, when a
	// correctly predicted taken branch misses the BTB and the target
	// must come from decode.
	BTBMissBubbles int

	// NonBlockingCache lifts the blocking-miss rule: memory misses no
	// longer serialize behind one another (idealized infinite MSHRs).
	// The baseline models the era's blocking L1.
	NonBlockingCache bool

	// ICache describes the instruction cache: when non-zero, fetch
	// stalls on instruction-line misses for ICacheMissFO4 of time. The
	// baseline (zero) assumes a perfect front end, as the paper's
	// trace-driven methodology does.
	ICache        cache.Config
	ICacheMissFO4 float64

	// RedirectBubble inserts a one-cycle fetch bubble after every
	// correctly predicted taken branch (taken-branch redirect).
	RedirectBubble bool

	// WrongPathActivity charges the front end (fetch, decode, rename)
	// with full-rate switching during misprediction-recovery windows:
	// a real machine fetches down the wrong path while the branch
	// resolves, burning energy the freeze model otherwise omits.
	WrongPathActivity bool

	// Tracer, when non-nil, records cycle-level fetch/issue/retire/
	// stall events and per-unit clock-gate activity into its ring
	// buffer (see pipeline.NewTracer for a schema-matched tracer).
	// Nil disables event tracing at zero per-cycle cost.
	//lint:fpexempt observer only: tracing never alters simulated results
	Tracer *telemetry.Tracer

	// Invariants, when non-nil, attaches the runtime conformance
	// engine: per-cycle capacity laws and end-of-run conservation laws
	// record violations (with cycle/unit context) into the Recorder
	// and its conformance_violations_total counter. The laws are
	// checked on every stepped cycle with skip-ahead on, and the
	// recorder sees exactly the per-cycle run's violations. Nil
	// disables the engine at the cost of one predictable branch per
	// stepped cycle.
	//lint:fpexempt observer only: invariant checking never alters simulated results
	Invariants *invariant.Recorder

	// Engine selects skip-ahead on (EngineAuto) or off
	// (EnginePerCycle, the reference). Both produce bit-identical
	// Results, so the toggle must not split
	// result-cache keys or run fingerprints.
	//lint:fpexempt engines are bit-identical by contract (difftest bit-identity tier); a throughput knob must not split cache keys
	Engine EngineKind

	// SampleInterval, when positive, records per-unit activity and
	// instruction counts every SampleInterval cycles, producing the
	// cycle-resolved power trace the paper's monitor collects
	// ("we monitor the usage of each microarchitectural unit of the
	// processor every cycle", §3). Zero disables sampling. Sampling
	// keeps skip-ahead on: stall spans stop at each sample boundary, so
	// samples match per-cycle stepping exactly.
	SampleInterval uint64

	// MaxCycles aborts runaway simulations with ErrMaxCycles (0 = no
	// limit beyond the built-in forward-progress watchdog, which
	// returns ErrNoProgress).
	MaxCycles uint64
}

// DefaultConfig returns the study's baseline machine at the given
// depth: 4-issue, 2 AGUs, 2 cache ports, tournament predictor, 512×4
// BTB, default cache hierarchy, t_p = 140 FO4, t_o = 2.5 FO4.
func DefaultConfig(depth int) (Config, error) {
	plan, err := PlanDepth(depth)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Width:          4,
		AgenWidth:      2,
		CachePorts:     2,
		BranchWidth:    1,
		AgenQCap:       8,
		ExecQCap:       16,
		WindowCap:      512,
		Plan:           plan,
		TP:             140,
		TO:             2.5,
		Predictor:      branch.PredictorConfig{Kind: branch.KindTournament, Bits: 12},
		BTB:            branch.BTBConfig{Entries: 512, Ways: 4},
		Hierarchy:      cache.DefaultHierarchy(),
		BTBMissBubbles: 2,
		RedirectBubble: true,
	}, nil
}

// MustDefaultConfig is DefaultConfig for known-good depths.
func MustDefaultConfig(depth int) Config {
	c, err := DefaultConfig(depth)
	if err != nil {
		panic(err)
	}
	return c
}

// Validate reports configuration problems.
func (c *Config) Validate() error {
	switch {
	case c.Width < 1:
		return errors.New("pipeline: width must be ≥ 1")
	case c.AgenWidth < 1 || c.CachePorts < 1:
		return errors.New("pipeline: agen width and cache ports must be ≥ 1")
	case c.BranchWidth < 1:
		return errors.New("pipeline: branch width must be ≥ 1")
	case c.AgenQCap < 1 || c.ExecQCap < 1:
		return errors.New("pipeline: queue capacities must be ≥ 1")
	case c.WindowCap < c.ExecQCap+c.Width:
		return errors.New("pipeline: window too small for the execution queue")
	case c.TP <= 0 || c.TO <= 0:
		return errors.New("pipeline: technology constants must be positive")
	}
	if c.BTBMissBubbles < 0 {
		return errors.New("pipeline: negative BTB miss bubbles")
	}
	if c.hasICache() && c.ICacheMissFO4 <= 0 {
		return errors.New("pipeline: ICache requires a positive miss latency")
	}
	if err := c.validateModels(); err != nil {
		return err
	}
	if c.Plan.Total() != c.Plan.Depth {
		return fmt.Errorf("pipeline: plan stages %d ≠ depth %d", c.Plan.Total(), c.Plan.Depth)
	}
	if c.Plan.Depth < MinSimDepth || c.Plan.Depth > MaxSimDepth {
		return fmt.Errorf("pipeline: depth %d out of range", c.Plan.Depth)
	}
	return nil
}

// CycleTime returns t_s = t_o + t_p/p in FO4 for this configuration.
func (c *Config) CycleTime() float64 {
	return c.TO + c.TP/float64(c.Plan.Depth)
}

// LatencyCycles converts a fixed FO4 latency (an L2 or memory access)
// into whole cycles at this configuration's cycle time, rounding up
// with a one-cycle minimum.
func (c *Config) LatencyCycles(fo4 float64) uint64 {
	if fo4 <= 0 {
		return 0
	}
	ts := c.CycleTime()
	n := uint64(fo4 / ts)
	if float64(n)*ts < fo4 {
		n++
	}
	if n == 0 {
		n = 1
	}
	return n
}
