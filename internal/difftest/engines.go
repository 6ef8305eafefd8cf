package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// The engine bit-identity tier. Skip-ahead (pipeline.EngineAuto, the
// one cycle body with stall spans fast-forwarded) is a pure throughput
// optimization: its contract is that no observable output — cycle
// counts, CycleBudget buckets, stall-episode counters, per-unit
// activity, power inputs — differs from per-cycle stepping
// (pipeline.EnginePerCycle, the same body with skip-ahead off) by even
// one bit. This tier
// enforces the contract across the full 55-workload catalog rather
// than the four representative profiles the rest of the matrix uses:
// skip-ahead legality is argued per stall shape (see the legality
// analysis in internal/pipeline/skipahead.go), and rare shapes — FPU
// occupancy runs, blocking-miss pile-ups, BTB-miss holds — appear only
// in the corners of the catalog.

// engineTierDepths keeps the tier affordable: the catalog runs at a
// sparse depth axis spanning shallow, near-optimal and deep designs,
// twice (once per engine).
var engineTierDepths = []int{4, 10, 18, 24}

// checkEngineDifferential runs the full workload catalog through both
// stepping engines and asserts every design point is bit-identical:
// the whole DepthPoint (FO4, measurement payload, both power
// breakdowns) via equalSweeps, then the serialized ResultData — the
// paper-facing payload including CycleBudget buckets and stall-episode
// counts — byte-for-byte after a codec round-trip. It does so twice:
// bare (differential/engines), and with an invariant recorder attached
// to each engine (differential/engines-inv), where the auto engine
// checks the per-cycle laws inside its skip-ahead loop and the two
// recorders must also end with the same per-rule violation summary.
func checkEngineDifferential(opts Options, rep *Report) error {
	profiles := workload.All()
	run := func(engine pipeline.EngineKind, rec *invariant.Recorder) ([]*core.Sweep, error) {
		warm := opts.Warmup
		if warm <= 0 {
			warm = -1 // StudyConfig treats 0 as "use default"
		}
		return core.RunCatalog(core.StudyConfig{
			Depths:       engineTierDepths,
			Instructions: opts.Instructions,
			Warmup:       warm,
			Parallelism:  opts.Parallelism,
			Metrics:      opts.Metrics,
			Engine:       engine,
			Invariants:   rec,
		}, profiles)
	}
	for _, observed := range []bool{false, true} {
		name := "differential/engines"
		var refRec, autoRec *invariant.Recorder
		if observed {
			name += "-inv"
			refRec, autoRec = invariant.New(nil), invariant.New(nil)
		}
		ref, err := run(pipeline.EnginePerCycle, refRec)
		if err != nil {
			return fmt.Errorf("difftest: per-cycle catalog: %w", err)
		}
		auto, err := run(pipeline.EngineAuto, autoRec)
		if err != nil {
			return fmt.Errorf("difftest: skip-ahead catalog: %w", err)
		}
		applySkipaheadDrift(opts.Mutate, auto)
		for i, sw := range ref {
			detail, same := equalSweeps(sw, auto[i])
			if same {
				detail, same = engineCodecIdentical(sw, auto[i])
			}
			rep.add(Check{
				Name:     name,
				Workload: sw.Workload.Name,
				Passed:   same,
				Detail:   detail,
			})
		}
		if observed {
			rep.add(recordersAgree(name, refRec, autoRec))
		}
	}
	return nil
}

// recordersAgree compares the per-rule violation summaries the two
// engines' recorders collected over the catalog. Equal summaries with
// violations in them still fail: the engines agree on a broken law.
func recordersAgree(name string, ref, auto *invariant.Recorder) Check {
	rs, as := ref.Summary(), auto.Summary()
	c := Check{Name: name, Passed: reflect.DeepEqual(rs, as) && ref.OK()}
	switch {
	case !reflect.DeepEqual(rs, as):
		c.Detail = fmt.Sprintf("violation summaries differ: per-cycle %v, skip-ahead %v", rs, as)
	case !ref.OK():
		c.Detail = fmt.Sprintf("both engines recorded %v", rs)
	default:
		c.Detail = "both recorders clean"
	}
	return c
}

// engineCodecIdentical compares the two engines' measurement payloads
// byte-for-byte through the codec: each point's ResultData is JSON
// round-tripped (encode → decode → encode) and the two final
// encodings must be equal.
func engineCodecIdentical(a, b *core.Sweep) (string, bool) {
	for i := range a.Points {
		ra, err := codecBytes(a.Points[i].Result.Data())
		if err != nil {
			return fmt.Sprintf("depth %d: per-cycle payload: %v", a.Points[i].Depth, err), false
		}
		rb, err := codecBytes(b.Points[i].Result.Data())
		if err != nil {
			return fmt.Sprintf("depth %d: skip-ahead payload: %v", b.Points[i].Depth, err), false
		}
		if !bytes.Equal(ra, rb) {
			return fmt.Sprintf("depth %d: ResultData encodings differ after codec round-trip", a.Points[i].Depth), false
		}
	}
	return fmt.Sprintf("%d points byte-identical through codec", len(a.Points)), true
}

// codecBytes round-trips one payload through the codec and returns the
// re-encoded bytes.
func codecBytes(d pipeline.ResultData) ([]byte, error) {
	raw, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	var back pipeline.ResultData
	if err := json.Unmarshal(raw, &back); err != nil {
		return nil, err
	}
	return json.Marshal(back)
}

// applySkipaheadDrift perturbs the skip-ahead engine's first design
// point the way a span-replication bug would: one extra replicated
// cycle lands in a cycle-budget bucket with no matching per-cycle
// event → differential/engines and differential/engines-inv.
func applySkipaheadDrift(active Mutation, auto []*core.Sweep) {
	if active != MutSkipaheadDrift || len(auto) == 0 || len(auto[0].Points) == 0 {
		return
	}
	pt := &auto[0].Points[0]
	mut := pt.Result.Data().Restore(pt.Result.Config)
	mut.CycleBudget[pipeline.BudgetUsefulIssue]++
	pt.Result = mut
}
