package pipeline

import (
	"errors"
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Models holds the live model instances a Config describes: the
// predictor, BTB, data-cache hierarchy and instruction cache (nil where
// the description is zero). Run builds them cold; a caller that
// measures steady state builds them with NewModels, trains them with
// Warm and passes them to RunWith. Either way the run never consults a
// live model: Replay drives the models through the measured window
// first, and the simulator reads the recorded Outcomes.
type Models struct {
	spec ModelSpec // the descriptions the models were built from

	predictor branch.Predictor
	btb       *branch.BTB
	hierarchy *cache.Hierarchy
	icache    *cache.Cache
}

// ModelSpec is a Config's model descriptions: the part of a machine
// that decides its model outcomes. It is comparable, so it keys a set
// of outcomes; the rest of the machine (geometry, depth, technology)
// never touches the models.
type ModelSpec struct {
	predictor branch.PredictorConfig
	btb       branch.BTBConfig
	hierarchy cache.HierarchyConfig
	icache    cache.Config
}

// ModelSpec returns the configuration's model descriptions.
func (c *Config) ModelSpec() ModelSpec {
	return ModelSpec{c.Predictor, c.BTB, c.Hierarchy, c.ICache}
}

func (c *Config) hasPredictor() bool { return c.Predictor != (branch.PredictorConfig{}) }
func (c *Config) hasBTB() bool       { return c.BTB != (branch.BTBConfig{}) }
func (c *Config) hasHierarchy() bool { return c.Hierarchy != (cache.HierarchyConfig{}) }
func (c *Config) hasICache() bool    { return c.ICache != (cache.Config{}) }

// validateModels reports the first invalid model description.
func (c *Config) validateModels() error {
	if c.hasPredictor() {
		if err := c.Predictor.Validate(); err != nil {
			return fmt.Errorf("pipeline: predictor: %w", err)
		}
	}
	if c.hasBTB() {
		if err := c.BTB.Validate(); err != nil {
			return fmt.Errorf("pipeline: BTB: %w", err)
		}
	}
	if c.hasHierarchy() {
		if err := c.Hierarchy.Validate(); err != nil {
			return fmt.Errorf("pipeline: hierarchy: %w", err)
		}
	}
	if c.hasICache() {
		if err := c.ICache.Validate(); err != nil {
			return fmt.Errorf("pipeline: ICache: %w", err)
		}
	}
	return nil
}

// NewModels builds cold models from the configuration's descriptions,
// reporting an invalid description as an error.
func NewModels(c *Config) (*Models, error) {
	if err := c.validateModels(); err != nil {
		return nil, err
	}
	m := &Models{spec: c.ModelSpec()}
	if c.hasPredictor() {
		m.predictor = c.Predictor.New()
	}
	if c.hasBTB() {
		m.btb = branch.MustBTB(c.BTB.Entries, c.BTB.Ways)
	}
	if c.hasHierarchy() {
		m.hierarchy = cache.MustHierarchy(c.Hierarchy)
	}
	if c.hasICache() {
		m.icache = cache.MustNew(c.ICache)
	}
	return m, nil
}

// errModelMismatch reports models built for other descriptions than the
// configuration being run, or outcomes replayed over another trace
// window than the one being run.
var errModelMismatch = errors.New("pipeline: models or outcomes do not match the configuration or trace window")

// Warm trains the models with the first n instructions of src (fewer
// if it ends first) — data and instruction accesses, branch outcomes
// and taken targets — so the run that follows measures steady state
// rather than a cold start.
func (m *Models) Warm(src trace.Stream, n int) {
	for i := 0; i < n; i++ {
		in, ok := src.Next()
		if !ok {
			break
		}
		if in.HasMemory() && m.hierarchy != nil {
			m.hierarchy.Access(in.Addr)
		}
		if m.icache != nil {
			m.icache.Access(in.PC)
		}
		if in.Class == isa.Branch {
			if m.predictor != nil {
				m.predictor.Predict(in.PC)
				m.predictor.Update(in.PC, in.Taken)
			}
			if m.btb != nil && in.Taken {
				m.btb.Lookup(in.PC)
				m.btb.Update(in.PC, in.Target)
			}
		}
	}
}

// traffic snapshots the models' cumulative traffic counters.
func (m *Models) traffic() ModelTraffic {
	var t ModelTraffic
	if m.hierarchy != nil {
		t.HasHierarchy = true
		t.L1, t.L2 = m.hierarchy.L1Stats(), m.hierarchy.L2Stats()
	}
	if m.btb != nil {
		t.HasBTB = true
		t.BTB = m.btb.Stats()
	}
	return t
}

// Outcome bits: what the models did for one instruction.
const (
	outLevel      = 3      // the cache.Level that served a memory op's data
	outICacheMiss = 1 << 2 // fetch entered a new code line and missed the I-cache
	outMispredict = 1 << 3 // the predictor mispredicted the branch
	outBTBMiss    = 1 << 4 // a correctly predicted taken branch missed the BTB
)

// Outcomes is what one Models value did over one packed trace window,
// in program order: an outcome byte per instruction and the window's
// model traffic. Reading it in place of live models is exact because
// the simulator consults every model in program order at every depth —
// the predictor, BTB and I-cache at fetch, the data hierarchy at cache
// exit behind the FIFO address path (TestModelOutcomesDepthInvariant).
// Outcomes are immutable, so one value serves a run at every depth.
type Outcomes struct {
	spec    ModelSpec          // the descriptions of the replayed models
	trace   *trace.PackedTrace // the replayed window: records [lo, hi)
	lo, hi  int
	col     []uint8
	traffic ModelTraffic
}

// Replay drives the models through the stream's remaining window
// exactly as a run consults them — the I-cache on each change of fetch
// line (from line 0), the predictor on every branch, the BTB on each
// correctly predicted taken branch, the hierarchy on every memory
// access — and records the outcomes. The models keep the trained state;
// the stream's cursor does not move.
func (m *Models) Replay(ps *trace.PackedStream) *Outcomes {
	t, lo, hi := ps.Trace()
	o := &Outcomes{spec: m.spec, trace: t, lo: lo, hi: hi, col: make([]uint8, hi-lo)}
	t0 := m.traffic()
	m.replay(t.Columns(lo), o.col)
	o.traffic = m.traffic().since(t0)
	return o
}

// replay fills col with the outcomes of the instructions fc holds,
// walking the by-kind address and target columns with a cursor each.
//
//lint:hotpath per-instruction model replay; must not allocate
func (m *Models) replay(fc trace.Columns, col []uint8) {
	hier, icache, pred, btb := m.hierarchy, m.icache, m.predictor, m.btb
	lastLine := uint64(0)
	mem, br := 0, 0
	for seq := range col {
		pc, flg := fc.PC[seq], fc.Flags[seq]
		var oc uint8
		if icache != nil {
			if line := pc &^ 63; line != lastLine {
				lastLine = line
				if !icache.Access(pc) {
					oc |= outICacheMiss
				}
			}
		}
		if flg&trace.FlagHasMem != 0 {
			if hier != nil {
				level, _ := hier.Access(fc.Addr[mem])
				oc |= uint8(level)
			}
			mem++
		}
		if isa.Class(fc.Class[seq]) == isa.Branch {
			taken := flg&trace.FlagTaken != 0
			predicted := taken
			if pred != nil {
				predicted = pred.Predict(pc)
				pred.Update(pc, taken)
			}
			if predicted != taken {
				oc |= outMispredict
			} else if taken && btb != nil {
				if _, hit := btb.Lookup(pc); !hit {
					oc |= outBTBMiss
				}
				btb.Update(pc, fc.Target[br])
			}
			br++
		}
		col[seq] = oc
	}
}
