package pipeline

import "slices"

// ResultData is the serializable measurement payload of a Result: every
// counter the simulator produced, without the Config and the model
// traffic (see ModelTraffic). It is the unit of storage for the
// on-disk result cache — a Result split into the part that must be
// persisted (this) and the part that can be rebuilt from the machine
// configuration (the Config itself, identified by its Fingerprint).
type ResultData struct {
	Instructions uint64 `json:"instructions"` // retired instructions N_I
	Cycles       uint64 `json:"cycles"`       // total cycles T (in cycles)

	IssueCycles uint64                 `json:"issue_cycles"`         // cycles in which ≥1 instruction issued
	IssueHist   []uint64               `json:"issue_hist,omitempty"` // [0..Width] instructions issued per cycle
	StallCycles [NumStallCauses]uint64 `json:"stall_cycles"`
	// CycleBudget attributes every cycle of the run to exactly one
	// CycleBucket; the buckets sum to Cycles (RuleCycleBudget).
	CycleBudget [NumCycleBuckets]uint64 `json:"cycle_budget"`
	Hazards     HazardCounts            `json:"hazards"`

	Branches          uint64           `json:"branches"`
	TakenBranches     uint64           `json:"taken_branches"`
	PredictorCorrect  uint64           `json:"predictor_correct"`
	LoadCount         uint64           `json:"load_count"`
	RXCount           uint64           `json:"rx_count"`
	StoreCount        uint64           `json:"store_count"`
	L1Misses          uint64           `json:"l1_misses"`         // demand load+store L1 misses
	ICacheMisses      uint64           `json:"icache_misses"`     // instruction-line misses (ICache configured)
	BTBMisses         uint64           `json:"btb_misses"`        // taken-branch target misses (BTB configured)
	UnitActive        [NumUnits]uint64 `json:"unit_active"`       // cycles each unit switched at all
	UnitOps           [NumUnits]uint64 `json:"unit_ops"`          // instructions processed per unit
	Samples           []ActivitySample `json:"samples,omitempty"` // interval trace (SampleInterval > 0)
	MaxWindowOccupied int              `json:"max_window_occupied"`
}

// Data extracts the serializable measurement payload of the result.
// Slices are copied so the payload is independent of the Result.
func (r *Result) Data() ResultData { return r.ResultData.clone() }

// Restore rebuilds a Result from the payload under the given machine
// configuration. The geometry, plan and technology must be those of
// the run that produced the data: every derived figure — IPC, BIPS,
// per-unit utilization, power evaluation — then matches the original
// run exactly. The measured-window model traffic is not part of the
// payload and reads zero.
func (d ResultData) Restore(cfg Config) *Result {
	return &Result{Config: cfg, ResultData: d.clone()}
}

// clone returns a copy of d that shares no slice storage with it.
func (d ResultData) clone() ResultData {
	d.IssueHist = slices.Clone(d.IssueHist)
	d.Samples = slices.Clone(d.Samples)
	return d
}
