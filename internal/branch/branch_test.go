package branch

import (
	"math/rand"
	"testing"
)

func TestTwoBitSaturation(t *testing.T) {
	c := twoBit(0)
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Errorf("counter under-saturated to %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Errorf("counter over-saturated to %d", c)
	}
	if !c.taken() || twoBit(1).taken() {
		t.Error("taken threshold wrong")
	}
	// Hysteresis: one not-taken from strong-taken still predicts taken.
	if c = c.update(false); !c.taken() {
		t.Error("no hysteresis")
	}
}

func TestStatic(t *testing.T) {
	p := NewStatic()
	if !p.Predict(0x100) {
		t.Error("static must predict taken")
	}
	p.Update(0x100, false)
	if !p.Predict(0x100) {
		t.Error("static learned — it must not")
	}
	if p.Name() != "static" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	p := NewBimodal(10)
	// Train a taken-biased branch and a not-taken-biased branch at
	// non-aliasing PCs; after warmup each should predict its own bias.
	for i := 0; i < 20; i++ {
		p.Update(0x1000, true)
		p.Update(0x1004, false)
	}
	if !p.Predict(0x1000) {
		t.Error("taken-biased branch predicted not-taken")
	}
	if p.Predict(0x1004) {
		t.Error("not-taken-biased branch predicted taken")
	}
}

func TestBimodalAliasing(t *testing.T) {
	// PCs that collide in a tiny table interfere; PCs that differ in
	// low bits with a large table do not.
	p := NewBimodal(16)
	for i := 0; i < 20; i++ {
		p.Update(0x1000, true)
	}
	for i := 0; i < 20; i++ {
		p.Update(0x1004, false)
	}
	if !p.Predict(0x1000) {
		t.Error("neighbouring PC clobbered unaliased entry")
	}
}

func TestGShareLearnsPattern(t *testing.T) {
	// A strict alternating pattern defeats bimodal but is perfectly
	// predictable from one bit of history.
	g := NewGShare(12)
	b := NewBimodal(12)
	pc := uint64(0x4000)
	pattern := func(i int) bool { return i%2 == 0 }
	gHits, bHits := 0, 0
	const n = 2000
	for i := 0; i < n; i++ {
		want := pattern(i)
		if g.Predict(pc) == want {
			gHits++
		}
		if b.Predict(pc) == want {
			bHits++
		}
		g.Update(pc, want)
		b.Update(pc, want)
	}
	if float64(gHits)/n < 0.95 {
		t.Errorf("gshare accuracy %.2f on alternating pattern, want ≥ 0.95", float64(gHits)/n)
	}
	if float64(bHits)/n > 0.75 {
		t.Errorf("bimodal accuracy %.2f on alternating pattern — should struggle", float64(bHits)/n)
	}
}

func TestTournamentPicksBetterComponent(t *testing.T) {
	// Mix of pattern branches (gshare wins) and biased branches
	// (bimodal suffices): tournament should approach the better
	// component on each.
	tn := NewTournament(12)
	hits, total := 0, 0
	for i := 0; i < 4000; i++ {
		// Pattern branch.
		want := i%2 == 0
		if tn.Predict(0x1000) == want {
			hits++
		}
		tn.Update(0x1000, want)
		total++
		// Biased branch.
		want = true
		if tn.Predict(0x2000) == want {
			hits++
		}
		tn.Update(0x2000, want)
		total++
	}
	if acc := float64(hits) / float64(total); acc < 0.92 {
		t.Errorf("tournament accuracy %.3f, want ≥ 0.92", acc)
	}
}

func TestPredictorsOnRandomBranches(t *testing.T) {
	// No predictor can do much better than 50% on i.i.d. random
	// outcomes — sanity bound against accidental oracle leaks.
	rng := rand.New(rand.NewSource(5))
	for _, p := range []Predictor{NewBimodal(12), NewGShare(12), NewTournament(12)} {
		hits := 0
		const n = 4000
		for i := 0; i < n; i++ {
			want := rng.Intn(2) == 0
			if p.Predict(0x7700) == want {
				hits++
			}
			p.Update(0x7700, want)
		}
		if acc := float64(hits) / n; acc > 0.58 {
			t.Errorf("%s accuracy %.3f on random branches — suspicious", p.Name(), acc)
		}
	}
}

func TestNewFactory(t *testing.T) {
	for _, k := range []Kind{KindStatic, KindBimodal, KindGShare, KindTournament} {
		c := PredictorConfig{Kind: k, Bits: 10}
		if err := c.Validate(); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if p := c.New(); p.Name() != string(k) {
			t.Errorf("%+v built %q", c, p.Name())
		}
	}
	for _, c := range []PredictorConfig{
		{Kind: "perceptron", Bits: 10},
		{Kind: KindBimodal, Bits: 0},
		{Kind: KindGShare, Bits: 25},
		{Kind: KindTournament},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

func TestConfigFingerprints(t *testing.T) {
	for c, want := range map[PredictorConfig]string{
		{Kind: KindStatic, Bits: 12}:     "static",
		{Kind: KindBimodal, Bits: 10}:    "bimodal/1024",
		{Kind: KindGShare, Bits: 12}:     "gshare/4096",
		{Kind: KindTournament, Bits: 12}: "tournament/4096",
	} {
		if got := string(c.AppendFingerprint(nil)); got != want {
			t.Errorf("%+v fingerprint %q, want %q", c, got, want)
		}
	}
	if got := string((BTBConfig{Entries: 512, Ways: 4}).AppendFingerprint([]byte("x"))); got != "xbtb/512/4" {
		t.Errorf("BTB fingerprint %q", got)
	}
}

func TestTableSizeBounds(t *testing.T) {
	for _, f := range []func(){
		func() { NewBimodal(0) },
		func() { NewBimodal(25) },
		func() { NewGShare(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range table size accepted")
				}
			}()
			f()
		}()
	}
}

func TestNames(t *testing.T) {
	names := map[string]Predictor{
		"bimodal":    NewBimodal(4),
		"gshare":     NewGShare(4),
		"tournament": NewTournament(4),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}
