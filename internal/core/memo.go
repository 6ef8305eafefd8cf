package core

import (
	"fmt"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Sweep memoization. Two per-workload artifacts are bit-identical
// across design points and across repeated catalog runs in one
// process, and both are expensive enough to dominate a fast sweep:
//
//   - the packed measured trace (generator replay + pack), and
//   - the model outcomes over it (pipeline.Outcomes): which access
//     misses and which branch mispredicts after the warm-up. The
//     simulator consults its models in program order at every depth,
//     so the outcomes are depth-invariant.
//
// An entry holds only the measured window's packed trace — the warm-up
// is streamed, never packed — and one outcome column per cell, keyed by
// the machine's model descriptions (pipeline.ModelSpec). A depth point
// runs pipeline.RunReplayed on the shared trace and its cell's column:
// no model is built, warmed or consulted.
// The entry's first cell (the machine of the sweep that creates the
// entry) warms from the generator pass that packs; a later cell, such
// as an ablation's, regenerates the warm-up prefix. Each artifact is
// computed once, outside the process-wide lock; concurrent callers
// wait for it. Results are bit-identical to the unmemoized path, which
// the difftest engine bit-identity tier checks end to end.
//
// The memo is bounded (FIFO eviction) and only consulted on the
// packed-engine path, by the first point of a sweep that misses the
// result cache; forcing pipeline.EnginePerCycle bypasses it entirely.

// memoMaxEntries bounds the memo. At the default 30k measured
// instructions an entry is ~0.56 MiB of packed trace (19.5 bytes per
// instruction on the catalog's mix) plus 30 KiB per outcome column, so
// the bound holds the full 55-workload catalog.
const memoMaxEntries = 64

// cell is one outcome column, computed once.
type cell struct {
	once sync.Once
	out  *pipeline.Outcomes
	err  error
}

// memoEntry is one workload's memoized artifacts for one warm-up and
// measured length.
type memoEntry struct {
	prof   workload.Profile
	warmup int

	once   sync.Once
	packed *trace.PackedTrace // the measured window only
	err    error

	mu    sync.Mutex
	cells map[pipeline.ModelSpec]*cell // guarded by mu
}

var sweepMemo = struct {
	sync.Mutex
	entries map[string]*memoEntry
	order   []string
}{entries: map[string]*memoEntry{}}

func memoKey(prof workload.Profile, warmup, n int) string {
	return fmt.Sprintf("%d|%d|%+v", warmup, n, prof)
}

// packedFor returns the memo entry of the profile's measured window
// under cfg's warm-up and length, packing it on first use.
func packedFor(cfg StudyConfig, prof workload.Profile) (*memoEntry, error) {
	key := memoKey(prof, cfg.Warmup, cfg.Instructions)
	sweepMemo.Lock()
	e, ok := sweepMemo.entries[key]
	if !ok {
		e = &memoEntry{prof: prof, warmup: cfg.Warmup, cells: map[pipeline.ModelSpec]*cell{}}
		if len(sweepMemo.order) >= memoMaxEntries {
			delete(sweepMemo.entries, sweepMemo.order[0])
			sweepMemo.order = sweepMemo.order[1:]
		}
		sweepMemo.entries[key] = e
		sweepMemo.order = append(sweepMemo.order, key)
	}
	sweepMemo.Unlock()
	e.once.Do(func() { e.err = e.pack(cfg) })
	return e, e.err
}

// pack streams the warm-up and packs the measured window in one
// generator pass. The models of the sweep's first machine warm on the
// way and replay into the entry's first cell; a machine that fails to
// build fails its points instead.
func (e *memoEntry) pack(cfg StudyConfig) error {
	gen, err := workload.NewGenerator(e.prof)
	if err != nil {
		return err
	}
	var (
		first *pipeline.Models
		key   pipeline.ModelSpec
	)
	if len(cfg.Depths) > 0 {
		if mc, err := cfg.Machine(cfg.Depths[0]); err == nil {
			key = mc.ModelSpec()
			first, _ = pipeline.NewModels(&mc)
		}
	}
	if first != nil {
		first.Warm(gen, e.warmup)
	} else {
		for range e.warmup {
			gen.Next()
		}
	}
	if e.packed, err = trace.PackStream(gen, cfg.Instructions); err != nil {
		return err
	}
	if first != nil {
		c := &cell{}
		c.once.Do(func() { c.out = first.Replay(e.packed.Stream()) })
		e.mu.Lock()
		e.cells[key] = c
		e.mu.Unlock()
	}
	return nil
}

// outcomes returns the entry's outcome column for mc's model
// descriptions, replaying it on first use.
func (e *memoEntry) outcomes(mc *pipeline.Config) (*pipeline.Outcomes, error) {
	key := mc.ModelSpec()
	e.mu.Lock()
	c, ok := e.cells[key]
	if !ok {
		c = &cell{}
		e.cells[key] = c
	}
	e.mu.Unlock()
	c.once.Do(func() { c.out, c.err = e.replay(mc) })
	return c.out, c.err
}

// replay builds mc's models, warms them on a regenerated warm-up
// prefix and replays the measured window into them.
func (e *memoEntry) replay(mc *pipeline.Config) (*pipeline.Outcomes, error) {
	m, err := pipeline.NewModels(mc)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(e.prof)
	if err != nil {
		return nil, err
	}
	m.Warm(gen, e.warmup)
	return m.Replay(e.packed.Stream()), nil
}
