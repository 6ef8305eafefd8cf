// Package branch implements the dynamic branch predictors used by the
// pipeline simulator's front end: static heuristics, bimodal two-bit
// counters, gshare, and a tournament combination. Predictor accuracy
// determines the branch-misprediction hazard rate N_H that drives the
// optimum-pipeline-depth analysis.
package branch

import (
	"fmt"
	"strconv"
)

// Predictor predicts conditional branch outcomes. Predict returns the
// predicted direction for the branch at pc; Update trains the
// predictor with the resolved outcome. Implementations are not safe
// for concurrent use.
type Predictor interface {
	Predict(pc uint64) bool
	Update(pc uint64, taken bool)
	// Name identifies the predictor in reports.
	Name() string
}

// twoBit is a saturating two-bit counter: 0,1 predict not-taken;
// 2,3 predict taken.
type twoBit uint8

func (c twoBit) taken() bool { return c >= 2 }

func (c twoBit) update(taken bool) twoBit {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Static predicts backward branches taken and forward branches
// not-taken when targets are known; with no target information it
// predicts always-taken, which this implementation uses (targets are
// not part of the Predictor interface). It never learns.
type Static struct{}

// NewStatic returns the always-taken static predictor.
func NewStatic() *Static { return &Static{} }

// Predict implements Predictor.
func (*Static) Predict(uint64) bool { return true }

// Update implements Predictor (no-op).
func (*Static) Update(uint64, bool) {}

// Name implements Predictor.
func (*Static) Name() string { return "static" }

// Bimodal is a classic per-PC two-bit-counter predictor.
type Bimodal struct {
	table []twoBit
	mask  uint64
}

// NewBimodal returns a bimodal predictor with 2^bits counters,
// initialized to weakly taken.
func NewBimodal(bits int) *Bimodal {
	if bits < 1 || bits > 24 {
		panic(fmt.Sprintf("branch: bimodal bits %d out of range", bits))
	}
	n := 1 << bits
	t := make([]twoBit, n)
	for i := range t {
		t[i] = 2
	}
	return &Bimodal{table: t, mask: uint64(n - 1)}
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[b.index(pc)].taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	b.table[i] = b.table[i].update(taken)
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

// GShare XORs a global history register with the PC to index a
// two-bit-counter table, capturing correlated branch behaviour.
type GShare struct {
	table   []twoBit
	mask    uint64
	history uint64
	histLen uint
}

// NewGShare returns a gshare predictor with 2^bits counters and
// history length equal to bits.
func NewGShare(bits int) *GShare {
	if bits < 1 || bits > 24 {
		panic(fmt.Sprintf("branch: gshare bits %d out of range", bits))
	}
	n := 1 << bits
	t := make([]twoBit, n)
	for i := range t {
		t[i] = 2
	}
	return &GShare{table: t, mask: uint64(n - 1), histLen: uint(bits)}
}

func (g *GShare) index(pc uint64) uint64 { return ((pc >> 2) ^ g.history) & g.mask }

// Predict implements Predictor.
func (g *GShare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update implements Predictor. The global history shifts in the
// resolved outcome.
func (g *GShare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= (1 << g.histLen) - 1
}

// Name implements Predictor.
func (g *GShare) Name() string { return "gshare" }

// Tournament selects per-PC between a bimodal and a gshare component
// using a chooser table of two-bit counters (0,1 favour bimodal;
// 2,3 favour gshare).
type Tournament struct {
	bimodal *Bimodal
	gshare  *GShare
	chooser []twoBit
	mask    uint64
}

// NewTournament returns a tournament predictor whose component and
// chooser tables each have 2^bits entries.
func NewTournament(bits int) *Tournament {
	n := 1 << bits
	ch := make([]twoBit, n)
	for i := range ch {
		ch[i] = 1 // weakly favour bimodal until gshare trains
	}
	return &Tournament{
		bimodal: NewBimodal(bits),
		gshare:  NewGShare(bits),
		chooser: ch,
		mask:    uint64(n - 1),
	}
}

// Predict implements Predictor.
func (t *Tournament) Predict(pc uint64) bool {
	if t.chooser[(pc>>2)&t.mask].taken() {
		return t.gshare.Predict(pc)
	}
	return t.bimodal.Predict(pc)
}

// Update implements Predictor: the chooser trains toward whichever
// component was correct, then both components train.
func (t *Tournament) Update(pc uint64, taken bool) {
	bp := t.bimodal.Predict(pc)
	gp := t.gshare.Predict(pc)
	i := (pc >> 2) & t.mask
	if bp != gp {
		t.chooser[i] = t.chooser[i].update(gp == taken)
	}
	t.bimodal.Update(pc, taken)
	t.gshare.Update(pc, taken)
}

// Name implements Predictor.
func (t *Tournament) Name() string { return "tournament" }

// Kind selects a predictor implementation by name.
type Kind string

// Predictor kinds a PredictorConfig accepts.
const (
	KindStatic     Kind = "static"
	KindBimodal    Kind = "bimodal"
	KindGShare     Kind = "gshare"
	KindTournament Kind = "tournament"
)

// PredictorConfig describes a predictor by value: its kind and, for
// the table-driven kinds, log2 of the table size. The zero value
// describes no predictor.
type PredictorConfig struct {
	Kind Kind
	Bits int // 2^Bits counters per table, 1–24; ignored for KindStatic
}

// Validate reports an unknown kind or a table size out of range.
func (c PredictorConfig) Validate() error {
	switch c.Kind {
	case KindStatic:
		return nil
	case KindBimodal, KindGShare, KindTournament:
		if c.Bits < 1 || c.Bits > 24 {
			return fmt.Errorf("branch: %s bits %d out of range [1, 24]", c.Kind, c.Bits)
		}
		return nil
	default:
		return fmt.Errorf("branch: unknown predictor kind %q", c.Kind)
	}
}

// AppendFingerprint appends a description of the predictor's kind and
// table size (never trained state) for run manifests and cache keys,
// e.g. "tournament/4096". Equal descriptions build predictors that
// behave identically on identical streams.
func (c PredictorConfig) AppendFingerprint(b []byte) []byte {
	if c.Kind == KindStatic {
		return append(b, "static"...)
	}
	entries := 1 << c.Bits
	b = append(append(b, c.Kind...), '/')
	return strconv.AppendInt(b, int64(entries), 10)
}

// New builds a cold predictor of the described kind; the description
// must be valid (see Validate).
func (c PredictorConfig) New() Predictor {
	switch c.Kind {
	case KindStatic:
		return NewStatic()
	case KindBimodal:
		return NewBimodal(c.Bits)
	case KindGShare:
		return NewGShare(c.Bits)
	case KindTournament:
		return NewTournament(c.Bits)
	default:
		panic(c.Validate())
	}
}
