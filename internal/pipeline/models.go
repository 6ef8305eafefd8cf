package pipeline

import (
	"errors"
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Models holds the live model instances one run drives: the predictor,
// BTB, data-cache hierarchy and instruction cache a Config describes
// (nil where the description is zero). Run builds them cold; a caller
// that measures steady state builds them with NewModels, trains them
// with Warm and passes them to RunWith. The run trains them further,
// so a Models value serves one run: Clone it to reuse the warm state.
type Models struct {
	spec modelSpec // the descriptions the models were built from

	predictor branch.Predictor
	btb       *branch.BTB
	hierarchy *cache.Hierarchy
	icache    *cache.Cache
}

// modelSpec is a Config's model descriptions.
type modelSpec struct {
	predictor branch.PredictorConfig
	btb       branch.BTBConfig
	hierarchy cache.HierarchyConfig
	icache    cache.Config
}

func (c *Config) modelSpec() modelSpec {
	return modelSpec{c.Predictor, c.BTB, c.Hierarchy, c.ICache}
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
	m := &Models{spec: c.modelSpec()}
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
// configuration being run.
var errModelMismatch = errors.New("pipeline: models were built for a different model configuration")

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

// Clone deep-copies the models, contents and statistics included. The
// clone and the original behave identically on identical streams and
// share no mutable state.
func (m *Models) Clone() *Models {
	c := &Models{spec: m.spec}
	if m.predictor != nil {
		c.predictor = m.predictor.Clone()
	}
	if m.btb != nil {
		c.btb = m.btb.Clone()
	}
	if m.hierarchy != nil {
		c.hierarchy = m.hierarchy.Clone()
	}
	if m.icache != nil {
		c.icache = m.icache.Clone()
	}
	return c
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
