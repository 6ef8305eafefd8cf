package pipeline

import (
	"repro/internal/telemetry"
)

// ResultData is the serializable measurement payload of a Result: every
// counter the simulator produced, without the Config and the model
// traffic (see ModelTraffic). It is the unit of storage for the
// on-disk result cache — a Result split into the part that must be
// persisted (this) and the part that can be rebuilt from the machine
// configuration (the Config itself, identified by its Fingerprint).
type ResultData struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`

	IssueCycles uint64                  `json:"issue_cycles"`
	IssueHist   []uint64                `json:"issue_hist,omitempty"`
	StallCycles [NumStallCauses]uint64  `json:"stall_cycles"`
	CycleBudget [NumCycleBuckets]uint64 `json:"cycle_budget"`
	Hazards     HazardCounts            `json:"hazards"`

	Branches          uint64           `json:"branches"`
	TakenBranches     uint64           `json:"taken_branches"`
	PredictorCorrect  uint64           `json:"predictor_correct"`
	LoadCount         uint64           `json:"load_count"`
	RXCount           uint64           `json:"rx_count"`
	StoreCount        uint64           `json:"store_count"`
	L1Misses          uint64           `json:"l1_misses"`
	ICacheMisses      uint64           `json:"icache_misses"`
	BTBMisses         uint64           `json:"btb_misses"`
	UnitActive        [NumUnits]uint64 `json:"unit_active"`
	UnitOps           [NumUnits]uint64 `json:"unit_ops"`
	Samples           []ActivitySample `json:"samples,omitempty"`
	MaxWindowOccupied int              `json:"max_window_occupied"`
}

// Data extracts the serializable measurement payload of the result.
// Slices are copied so the payload is independent of the Result.
func (r *Result) Data() ResultData {
	d := ResultData{
		Instructions:      r.Instructions,
		Cycles:            r.Cycles,
		IssueCycles:       r.IssueCycles,
		StallCycles:       r.StallCycles,
		CycleBudget:       r.CycleBudget,
		Hazards:           r.Hazards,
		Branches:          r.Branches,
		TakenBranches:     r.TakenBranches,
		PredictorCorrect:  r.PredictorCorrect,
		LoadCount:         r.LoadCount,
		RXCount:           r.RXCount,
		StoreCount:        r.StoreCount,
		L1Misses:          r.L1Misses,
		ICacheMisses:      r.ICacheMisses,
		BTBMisses:         r.BTBMisses,
		UnitActive:        r.UnitActive,
		UnitOps:           r.UnitOps,
		MaxWindowOccupied: r.MaxWindowOccupied,
	}
	if r.IssueHist != nil {
		d.IssueHist = append([]uint64(nil), r.IssueHist...)
	}
	if r.Samples != nil {
		d.Samples = append([]ActivitySample(nil), r.Samples...)
	}
	return d
}

// Restore rebuilds a Result from the payload under the given machine
// configuration, identified by configHash (the full configuration's
// Fingerprint, e.g. a result-cache key's ConfigHash). The geometry,
// plan and technology must be those of the run that produced the data:
// every derived figure — IPC, BIPS, per-unit utilization, power
// evaluation — then matches the original run exactly. The
// manifest is restamped to record the restore rather than the original
// simulation's wall time; the measured-window model traffic is not
// part of the payload and reads zero.
func (d ResultData) Restore(cfg Config, configHash string) *Result {
	man := telemetry.NewManifest("pipeline.Restore")
	man.ConfigHash = configHash
	r := &Result{
		Config:            cfg,
		Manifest:          man,
		Instructions:      d.Instructions,
		Cycles:            d.Cycles,
		IssueCycles:       d.IssueCycles,
		StallCycles:       d.StallCycles,
		CycleBudget:       d.CycleBudget,
		Hazards:           d.Hazards,
		Branches:          d.Branches,
		TakenBranches:     d.TakenBranches,
		PredictorCorrect:  d.PredictorCorrect,
		LoadCount:         d.LoadCount,
		RXCount:           d.RXCount,
		StoreCount:        d.StoreCount,
		L1Misses:          d.L1Misses,
		ICacheMisses:      d.ICacheMisses,
		BTBMisses:         d.BTBMisses,
		UnitActive:        d.UnitActive,
		UnitOps:           d.UnitOps,
		MaxWindowOccupied: d.MaxWindowOccupied,
	}
	if d.IssueHist != nil {
		r.IssueHist = append([]uint64(nil), d.IssueHist...)
	}
	if d.Samples != nil {
		r.Samples = append([]ActivitySample(nil), d.Samples...)
	}
	return r
}
