package core

import (
	"fmt"
	"sync"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Sweep memoization. Two per-workload artifacts are bit-identical
// across design points and across repeated catalog runs in one
// process, and both are expensive enough to dominate a fast sweep:
//
//   - the packed instruction trace (generator replay + pack), and
//   - the post-warm-up models (cache hierarchy, instruction cache,
//     predictor, BTB) — the warm-up replays the same access stream into
//     the same model descriptions regardless of pipeline depth, so its
//     result is depth-invariant.
//
// The memo caches both process-wide, keyed by the full workload
// profile (and, for warmed models, the model descriptions and warm-up
// length). The first point of a cell warms a pipeline.Models donor;
// every point runs on a deep Clone of it instead of re-streaming the
// warm-up, and sweeps reuse the packed trace instead of re-packing.
// Every point still owns private mutable state, so results are
// bit-identical to the unmemoized path — which the difftest engine
// bit-identity tier checks end to end.
//
// The memo is bounded (FIFO eviction) and only consulted on the
// packed-engine path; forcing pipeline.EnginePerCycle bypasses it
// entirely.

// memoMaxEntries bounds the packed-trace memo; at the conformance
// harness's trace lengths an entry is ~1 MiB, so the bound caps the
// memo near the size of the full 55-workload catalog.
const memoMaxEntries = 64

// donorKey identifies one warmed donor of a workload: the model
// descriptions and the warm-up length. The rest of the machine
// (geometry, depth, technology) never touches the models.
type donorKey struct {
	warmup    int
	predictor branch.PredictorConfig
	btb       branch.BTBConfig
	hierarchy cache.HierarchyConfig
	icache    cache.Config
}

// memoEntry is one workload's memoized artifacts.
type memoEntry struct {
	packed *trace.PackedTrace
	donors map[donorKey]*pipeline.Models
}

var sweepMemo = struct {
	sync.Mutex
	entries map[string]*memoEntry
	order   []string
}{entries: map[string]*memoEntry{}}

// packedFor returns the memoized packed trace of the profile's first
// total instructions, packing (and caching) it on first use.
func packedFor(prof workload.Profile, total int) (*memoEntry, error) {
	key := fmt.Sprintf("%d|%+v", total, prof)
	sweepMemo.Lock()
	defer sweepMemo.Unlock()
	if e, ok := sweepMemo.entries[key]; ok {
		return e, nil
	}
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		return nil, err
	}
	packed, err := trace.PackStream(gen, total)
	if err != nil {
		return nil, err
	}
	e := &memoEntry{packed: packed, donors: map[donorKey]*pipeline.Models{}}
	if len(sweepMemo.order) >= memoMaxEntries {
		delete(sweepMemo.entries, sweepMemo.order[0])
		sweepMemo.order = sweepMemo.order[1:]
	}
	sweepMemo.entries[key] = e
	sweepMemo.order = append(sweepMemo.order, key)
	return e, nil
}

// warmModels returns models for mc primed with the first warmup
// instructions of the packed trace, cloned from the cell's donor: the
// first point of a (model descriptions, warm-up) cell builds and warms
// the donor, every point runs on a clone. Without a warm-up the models
// are built cold and nothing is memoized.
func (e *memoEntry) warmModels(mc *pipeline.Config, warmup int) (*pipeline.Models, error) {
	if warmup == 0 {
		return pipeline.NewModels(mc)
	}
	key := donorKey{warmup, mc.Predictor, mc.BTB, mc.Hierarchy, mc.ICache}
	sweepMemo.Lock()
	defer sweepMemo.Unlock()
	d, ok := e.donors[key]
	if !ok {
		var err error
		if d, err = pipeline.NewModels(mc); err != nil {
			return nil, err
		}
		d.Warm(e.packed.Slice(0, warmup), warmup)
		e.donors[key] = d
	}
	return d.Clone(), nil
}
