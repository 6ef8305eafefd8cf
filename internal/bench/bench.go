// Package bench appends per-run performance records to a BENCH
// trajectory file (one JSON object per line, conventionally
// BENCH_sweep.json): wall time, throughput, cache effectiveness and
// per-phase duration histograms. Every CI run and local sweep appends
// one record, so "did this PR make sweeps slower?" is answerable from
// the artifact trail instead of folklore.
package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/telemetry"
)

// Phase summarizes one duration histogram (microseconds).
type Phase struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us,omitempty"`
	MaxUS  float64 `json:"max_us"`
}

// PhaseFrom digests a telemetry histogram of microsecond durations.
// The zero Phase is returned for an empty histogram.
func PhaseFrom(h *telemetry.Histogram) Phase {
	n := h.Count()
	if n == 0 {
		return Phase{}
	}
	return Phase{
		Count:  n,
		MeanUS: h.Mean(),
		P50US:  h.Quantile(0.50),
		P95US:  h.Quantile(0.95),
		P99US:  h.Quantile(0.99),
		MaxUS:  h.Quantile(1),
	}
}

// Record is one run's performance summary.
//
// Figures only one tool measures are pointers: nil means "not
// measured" and is omitted from the JSON line, while a measured zero —
// zero allocations per cycle, zero violations — is written. Records
// written before this distinction omit measured zeros too, so readers
// treat an absent field as not measured.
type Record struct {
	Tool      string `json:"tool"`
	StartedAt string `json:"started_at"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	NumCPU    int    `json:"num_cpu"`

	Workload     string  `json:"workload,omitempty"`
	Points       int     `json:"points"`
	WallSec      float64 `json:"wall_sec"`
	PointsPerSec float64 `json:"points_per_sec"`

	// Server-run figures (the depthd load harness): HTTP request count
	// and throughput. Requests differ from Points — one request may
	// cover a whole study or none (status polls), so both axes are
	// recorded.
	Requests       uint64  `json:"requests,omitempty"`
	RequestsPerSec float64 `json:"requests_per_sec,omitempty"`

	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	FitErrors    uint64  `json:"fit_errors"`

	// Conformance-run figures (cmd/conformance): per-check verdict
	// counts, total invariant violations, and the invariant-engine
	// overhead measurement — design-point throughput with the engine
	// detached (the default nil-Recorder path) and attached, plus the
	// relative cost of attaching. The disabled-mode engine is a single
	// nil-check branch per simulated cycle, so PointsPerSecOff is
	// directly comparable against the BENCH_sweep.json trajectory.
	ChecksPassed    int      `json:"checks_passed,omitempty"`
	ChecksFailed    *int     `json:"checks_failed,omitempty"`
	Violations      *uint64  `json:"violations,omitempty"`
	PointsPerSecOff *float64 `json:"points_per_sec_invariants_off,omitempty"`
	PointsPerSecOn  *float64 `json:"points_per_sec_invariants_on,omitempty"`
	// InvariantOverhead is PointsPerSecOff/PointsPerSecOn − 1: the
	// fractional slowdown of enabling the engine.
	InvariantOverhead *float64 `json:"invariant_overhead_frac,omitempty"`

	// Observability figures (the depthd load harness with the ledger
	// and SLO engine on): canonical ledger throughput and loss, and the
	// worst fast-window burn rate at the end of the run. A load test
	// that drops ledger events or ends while burning is visible in the
	// trajectory, not just in that run's logs.
	LedgerEvents uint64 `json:"ledger_events,omitempty"`
	LedgerDrops  uint64 `json:"ledger_drops,omitempty"`
	// LedgerDropFrac is Drops/(Events+Drops) — the shed fraction.
	LedgerDropFrac float64 `json:"ledger_drop_frac,omitempty"`
	// MaxBurnRate is the highest fast-window SLO burn rate across
	// objectives at the end of the run (1.0 = burning the budget
	// exactly at the sustainable pace).
	MaxBurnRate float64 `json:"max_burn_rate,omitempty"`

	// PointsPerSecPerCycle is design-point throughput with the
	// per-cycle reference engine forced (pipeline.EnginePerCycle) —
	// the "before" of the skip-ahead engine, measured in the same run
	// that measured PointsPerSecOff so the pair is an in-record
	// before/after. benchdiff fails the gate when the optimized engine
	// drops below this baseline: a skip-ahead path slower than the
	// stepping it replaces has lost its reason to exist.
	PointsPerSecPerCycle *float64 `json:"points_per_sec_per_cycle,omitempty"`
	// SpeedupVsSeed is PointsPerSec (or PointsPerSecOff for
	// conformance records) divided by the same figure in the
	// trajectory's oldest record — cumulative speedup over the life of
	// the trajectory, so one field answers "how much faster than the
	// seed is this now?" without diffing files by hand.
	SpeedupVsSeed float64 `json:"speedup_vs_seed,omitempty"`

	// Alloc-guard figures (the AllocsPerRun guard in internal/power,
	// tool "allocguard"): steady-state heap allocations per simulated
	// cycle in pipeline.Run — per-cycle and skip-ahead engines
	// separately, the latter also with an invariant recorder attached —
	// and per power evaluation in power.Evaluate, plus per record
	// iterated from a packed trace. Deterministic counts, not
	// throughput — benchdiff gates them on an absolute band around
	// zero, like the other near-zero fractions.
	AllocsPerCycle             *float64 `json:"allocs_per_cycle,omitempty"`
	AllocsPerCycleFast         *float64 `json:"allocs_per_cycle_fast,omitempty"`
	AllocsPerCycleFastObserved *float64 `json:"allocs_per_cycle_fast_observed,omitempty"`
	AllocsPerEval              *float64 `json:"allocs_per_eval,omitempty"`
	AllocsPerPackedRecord      *float64 `json:"allocs_per_packed_record,omitempty"`

	// Phases holds per-phase duration histograms, e.g. "point" for
	// simulated design points and "point_cached" for cache hits.
	Phases map[string]Phase `json:"phases,omitempty"`
}

// Ptr returns a pointer to v, for setting a measured figure.
func Ptr[T any](v T) *T { return &v }

// SetLedger fills the ledger figures and derives the drop fraction.
func (r *Record) SetLedger(written, dropped uint64) {
	r.LedgerEvents, r.LedgerDrops = written, dropped
	if total := written + dropped; total > 0 {
		r.LedgerDropFrac = float64(dropped) / float64(total)
	}
}

// NewRecord stamps a record with the environment and start time.
func NewRecord(tool string, start time.Time) Record {
	return Record{
		Tool:      tool,
		StartedAt: start.UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// Finish records wall time and derives the points/sec throughput.
func (r *Record) Finish(start time.Time) {
	r.WallSec = time.Since(start).Seconds()
	if r.WallSec > 0 {
		r.PointsPerSec = float64(r.Points) / r.WallSec
		if r.Requests > 0 {
			r.RequestsPerSec = float64(r.Requests) / r.WallSec
		}
	}
}

// SeedRate returns the metric's value in the oldest record of the
// trajectory at path where it is positive — the "seed" figure that
// SpeedupVsSeed is computed against. It returns 0 (and no error) when
// the trajectory is missing, unreadable or holds no such record:
// speedup-vs-seed is best-effort provenance, never a reason to fail
// the run that wants to append to the trajectory.
func SeedRate(path string, metric func(Record) float64) float64 {
	recs, err := Load(path)
	if err != nil {
		return 0
	}
	for _, rec := range recs {
		if v := metric(rec); v > 0 {
			return v
		}
	}
	return 0
}

// Load reads a trajectory file back into records, in append order.
// A missing file loads as an empty trajectory, not an error — a fresh
// checkout has no history yet. Blank lines are skipped; a malformed
// line is an error (the trajectory is append-only, so corruption means
// something is wrong, not merely old).
func Load(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var recs []Record
	for i, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("bench: %s line %d: %w", path, i+1, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// Append writes the record as one JSON line at the end of path,
// creating the file if needed — the trajectory grows monotonically
// across runs and survives interleaved writers (line-atomic appends).
func Append(path string, rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("bench: encode: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	_, werr := f.Write(append(data, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("bench: append: %w", werr)
	}
	return nil
}
