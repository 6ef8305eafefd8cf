package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// tally counts checked operations and the failures among them.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // the first few, for the report
}

// note records one checked operation; a non-nil err is a failure.
func (t *tally) note(err error) {
	t.Attempted++
	if err == nil {
		return
	}
	t.Failed++
	if len(t.Failures) < 8 {
		t.Failures = append(t.Failures, err.Error())
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, f := range o.Failures {
		if len(t.Failures) < 8 {
			t.Failures = append(t.Failures, f)
		}
	}
}

// checkPoint is the per-point correctness gate: the result passes the
// simulator's own end-of-run accounting laws, retires exactly the
// configured instruction count, and attributes every cycle to exactly
// one cycle-budget bucket.
func checkPoint(r *pipeline.Result, instructions int) error {
	if r == nil {
		return fmt.Errorf("missing result")
	}
	rec := invariant.New(nil)
	if !pipeline.CheckResultInvariants(rec, r) {
		vs := rec.Violations()
		return fmt.Errorf("result invariants: %d violations, first: %s", rec.Count(), vs[0])
	}
	if r.Instructions != uint64(instructions) {
		return fmt.Errorf("retired %d instructions, configured %d", r.Instructions, instructions)
	}
	var budget uint64
	for _, c := range r.CycleBudget {
		budget += c
	}
	if budget != r.Cycles {
		return fmt.Errorf("cycle budget sums to %d, run has %d cycles", budget, r.Cycles)
	}
	return nil
}

// checkSweeps gates every point of every sweep.
func checkSweeps(sweeps []*core.Sweep, instructions int) tally {
	var t tally
	for _, sw := range sweeps {
		for _, p := range sw.Points {
			err := checkPoint(p.Result, instructions)
			if err != nil {
				err = fmt.Errorf("%s depth %d: %w", sw.Workload.Name, p.Depth, err)
			}
			t.note(err)
		}
	}
	return t
}

// resultBytes is the canonical byte form of a point's measurements.
func resultBytes(r *pipeline.Result) []byte {
	data, err := json.Marshal(r.Data())
	if err != nil {
		// ResultData is plain counters; Marshal cannot fail on it.
		panic(err)
	}
	return data
}

// crossCheck re-simulates one design point on the per-cycle reference
// engine from a fresh generator and requires its ResultData to match
// the measured point byte for byte.
func crossCheck(cfg core.StudyConfig, prof workload.Profile, got core.DepthPoint) error {
	ref := core.StudyConfig{
		Depths:       []int{got.Depth},
		Instructions: cfg.Instructions,
		Warmup:       cfg.Warmup,
		Power:        cfg.Power,
		Machine:      cfg.Machine,
		Engine:       pipeline.EnginePerCycle,
		Parallelism:  1,
	}
	sw, err := core.RunSweep(ref, prof)
	if err != nil {
		return fmt.Errorf("cross-check %s depth %d: %w", prof.Name, got.Depth, err)
	}
	want := resultBytes(sw.Points[0].Result)
	if have := resultBytes(got.Result); !bytes.Equal(have, want) {
		return fmt.Errorf("cross-check %s depth %d: ResultData differs from the per-cycle reference", prof.Name, got.Depth)
	}
	return nil
}

// crossCheckSample cross-checks n seed-chosen points of the sweeps;
// cfgs[i] is the study configuration sweeps[i] ran under.
func crossCheckSample(cfgs []core.StudyConfig, sweeps []*core.Sweep, seed uint64, n int) tally {
	type ref struct{ sweep, point int }
	var all []ref
	for i, sw := range sweeps {
		for j := range sw.Points {
			all = append(all, ref{i, j})
		}
	}
	var t tally
	for _, k := range newRNG(seed, streamCrossCheck).pick(len(all), min(n, len(all))) {
		sw := sweeps[all[k].sweep]
		t.note(crossCheck(cfgs[all[k].sweep], sw.Workload, sw.Points[all[k].point]))
	}
	return t
}

// sweepBytes is the canonical byte form of a sweep's simulated
// statistics: each point's depth, full ResultData, cycle time and both
// power totals.
func sweepBytes(sw *core.Sweep) []byte {
	var b bytes.Buffer
	b.WriteString(sw.Workload.Name)
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		b.Write(buf[:])
	}
	for _, p := range sw.Points {
		put(uint64(p.Depth))
		b.Write(resultBytes(p.Result))
		put(math.Float64bits(p.FO4))
		put(math.Float64bits(p.GatedPower.Total()))
		put(math.Float64bits(p.PlainPower.Total()))
	}
	return b.Bytes()
}

// digest folds every simulated statistic of the sweeps into one hash,
// so two commits (or two runs) can be compared exactly.
func digest(sweeps []*core.Sweep) string {
	h := sha256.New()
	for _, sw := range sweeps {
		h.Write(sweepBytes(sw))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
