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
//   - the post-warm-up architectural state of the attached models
//     (cache hierarchy, instruction cache, predictor, BTB) — the
//     warm-up replays the same access stream into the same geometry
//     regardless of pipeline depth, so its result is depth-invariant.
//
// The memo caches both process-wide, keyed by the full workload
// profile (and, for warm state, the model geometry and warm-up
// length). Design points then clone the warmed donor instead of
// re-streaming the warm-up, and sweeps reuse the packed trace instead
// of re-packing. Clones are deep copies (branch.Cloner, cache.Clone),
// so every point still owns private mutable state and results are
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

// memoDonor holds the deep-copied post-warm-up model state for one
// (workload, model geometry, warm-up length) cell.
type memoDonor struct {
	hierarchy *cache.Hierarchy
	icache    *cache.Cache
	predictor branch.Predictor
	btb       *branch.BTB
}

// memoEntry is one workload's memoized artifacts.
type memoEntry struct {
	packed *trace.PackedTrace
	donors map[string]*memoDonor
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
	e := &memoEntry{packed: packed, donors: map[string]*memoDonor{}}
	if len(sweepMemo.order) >= memoMaxEntries {
		delete(sweepMemo.entries, sweepMemo.order[0])
		sweepMemo.order = sweepMemo.order[1:]
	}
	sweepMemo.entries[key] = e
	sweepMemo.order = append(sweepMemo.order, key)
	return e, nil
}

// modelKey fingerprints the machine's attached-model geometry (which
// models are present and their shapes — never transient contents). An
// empty key means the models cannot be safely donor-cloned and the
// caller must warm per point.
func modelKey(mc *pipeline.Config, warmup int) string {
	g, ok := modelGeom(mc)
	if !ok {
		return ""
	}
	return fmt.Sprintf("w%d", warmup) + g
}

// modelGeom is modelKey's geometry part: the attached models' shape
// fingerprints, without the warm-up length. ok is false when a model
// cannot be safely donor-cloned.
func modelGeom(mc *pipeline.Config) (string, bool) {
	key := ""
	if mc.Hierarchy != nil {
		key += fmt.Sprintf("|h%+v", mc.Hierarchy.Config())
	}
	if mc.ICache != nil {
		key += fmt.Sprintf("|i%+v", mc.ICache.Config())
	}
	if mc.Predictor != nil {
		if _, ok := mc.Predictor.(branch.Cloner); !ok {
			return "", false
		}
		fp, ok := mc.Predictor.(branch.Fingerprinter)
		if !ok {
			return "", false
		}
		key += "|p" + fp.Fingerprint()
	}
	if mc.BTB != nil {
		key += "|b" + mc.BTB.Fingerprint()
	}
	return key, true
}

// defaultModelGeom fingerprints the baseline model set once per
// process, so bare-geometry default-machine points can probe the donor
// memo without constructing the models just to fingerprint them.
var defaultModelGeom = sync.OnceValue(func() string {
	var c pipeline.Config
	pipeline.AttachDefaultModels(&c)
	g, _ := modelGeom(&c)
	return g
})

// defaultConfigHashes memoizes, per depth, the Fingerprint of the
// fully built default machine (pipeline.DefaultConfig): the ConfigHash
// of a bare default-geometry point's result-cache key, byte-identical
// to the one the full construction yields.
var defaultConfigHashes sync.Map // depth → string

// defaultConfigHash returns the memoized default-machine fingerprint at
// a depth whose geometry is known to be valid.
func defaultConfigHash(depth int) string {
	if h, ok := defaultConfigHashes.Load(depth); ok {
		return h.(string)
	}
	mc := pipeline.MustDefaultConfig(depth)
	h := mc.Fingerprint()
	defaultConfigHashes.Store(depth, h)
	return h
}

// warmDefault serves a bare default-geometry point straight from the
// baseline-model donor memo: on a hit it installs warmed clones into
// mc without ever constructing the default models. A miss returns
// false, and the caller attaches fresh default models and takes the
// ordinary warmFromMemo path — which seeds the donor under the same
// key, so every later point of the cell hits here.
func (e *memoEntry) warmDefault(mc *pipeline.Config, warmup int) bool {
	key := fmt.Sprintf("w%d", warmup) + defaultModelGeom()
	sweepMemo.Lock()
	defer sweepMemo.Unlock()
	d, ok := e.donors[key]
	if !ok {
		return false
	}
	if d.hierarchy != nil {
		mc.Hierarchy = d.hierarchy.Clone()
	}
	if d.icache != nil {
		mc.ICache = d.icache.Clone()
	}
	if d.predictor != nil {
		mc.Predictor = d.predictor.(branch.Cloner).ClonePredictor()
	}
	if d.btb != nil {
		mc.BTB = d.btb.Clone()
	}
	mc.KeepState = true
	return true
}

// warmFromMemo primes mc's attached models with the first warmup
// instructions of the packed trace, serving the state from the donor
// memo when possible: the first point of a (geometry, warm-up) cell
// streams the warm-up once and donates deep copies; every later point
// clones the donor. Returns false when the models cannot be cloned
// (the caller must warm per point).
func (e *memoEntry) warmFromMemo(mc *pipeline.Config, warmup int) bool {
	// Donor state stands in for warming the models the point arrived
	// with, which is only sound when those models are cold (the Machine
	// factory contract). A factory handing out pre-used caches falls
	// back to the per-point warm.
	if mc.Hierarchy != nil && mc.Hierarchy.L1Stats().Accesses != 0 {
		return false
	}
	if mc.ICache != nil && mc.ICache.Stats().Accesses != 0 {
		return false
	}
	key := modelKey(mc, warmup)
	if key == "" {
		return false
	}
	sweepMemo.Lock()
	defer sweepMemo.Unlock()
	d, ok := e.donors[key]
	if !ok {
		pipeline.Warm(mc, e.packed.Slice(0, warmup), warmup)
		d = &memoDonor{}
		if mc.Hierarchy != nil {
			d.hierarchy = mc.Hierarchy.Clone()
		}
		if mc.ICache != nil {
			d.icache = mc.ICache.Clone()
		}
		if mc.Predictor != nil {
			d.predictor = mc.Predictor.(branch.Cloner).ClonePredictor()
		}
		if mc.BTB != nil {
			d.btb = mc.BTB.Clone()
		}
		e.donors[key] = d
		return true
	}
	if d.hierarchy != nil {
		mc.Hierarchy = d.hierarchy.Clone()
	}
	if d.icache != nil {
		mc.ICache = d.icache.Clone()
	}
	if d.predictor != nil {
		mc.Predictor = d.predictor.(branch.Cloner).ClonePredictor()
	}
	if d.btb != nil {
		mc.BTB = d.btb.Clone()
	}
	mc.KeepState = true
	return true
}
