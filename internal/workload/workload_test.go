package workload

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := newRNG(43)
	same := 0
	a = newRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestRNGDistributions(t *testing.T) {
	r := newRNG(7)
	// Float64 in [0,1) with mean ≈ 0.5.
	sum := 0.0
	for i := 0; i < 20000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
		sum += v
	}
	if mean := sum / 20000; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %g", mean)
	}
	// Geometric mean ≈ (1-p)/p.
	p := 0.4
	total := 0
	for i := 0; i < 20000; i++ {
		total += r.Geometric(p)
	}
	want := (1 - p) / p
	if mean := float64(total) / 20000; math.Abs(mean-want) > 0.1 {
		t.Errorf("Geometric mean = %g, want ≈ %g", mean, want)
	}
	// IntBetween inclusive bounds.
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntBetween(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("IntBetween out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Errorf("IntBetween coverage = %v", seen)
	}
}

func TestCatalogShape(t *testing.T) {
	all := All()
	if len(all) != Count {
		t.Fatalf("catalog has %d workloads, want %d", len(all), Count)
	}
	classCounts := map[Class]int{}
	names := map[string]bool{}
	for _, p := range all {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if names[p.Name] {
			t.Errorf("duplicate workload name %s", p.Name)
		}
		names[p.Name] = true
		classCounts[p.Class]++
	}
	want := map[Class]int{Legacy: 14, Modern: 12, SPECInt: 16, SPECFP: 13}
	for c, n := range want {
		if classCounts[c] != n {
			t.Errorf("%s count = %d, want %d", c, classCounts[c], n)
		}
	}
	// Stable ordering.
	again := All()
	for i := range all {
		if all[i].Name != again[i].Name {
			t.Fatal("catalog order not stable")
		}
	}
}

func TestCatalogLookups(t *testing.T) {
	if _, ok := ByName("si95-gcc"); !ok {
		t.Error("si95-gcc missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("bogus name found")
	}
	// ByName builds only the named profile; it must be the catalog's.
	for _, want := range All() {
		if got, ok := ByName(want.Name); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) differs from the catalog entry", want.Name)
		}
	}
	if got := len(ByClass(SPECFP)); got != 13 {
		t.Errorf("SPECFP count = %d", got)
	}
	if got := len(Names()); got != Count {
		t.Errorf("Names count = %d", got)
	}
	for _, c := range []Class{Legacy, Modern, SPECInt, SPECFP} {
		r := Representative(c)
		if r.Class != c {
			t.Errorf("Representative(%s) has class %s", c, r.Class)
		}
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		Legacy: "Legacy", Modern: "Modern", SPECInt: "SPECint", SPECFP: "SPECfp",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestGeneratorDeterminismAndReset(t *testing.T) {
	prof, _ := ByName("si95-gcc")
	g1 := MustGenerator(prof)
	g2 := MustGenerator(prof)
	a := trace.Collect(trace.NewLimitStream(g1, 2000), 0)
	b := trace.Collect(trace.NewLimitStream(g2, 2000), 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs across fresh generators", i)
		}
	}
	g1.Reset()
	c := trace.Collect(trace.NewLimitStream(g1, 2000), 0)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("instruction %d differs after Reset", i)
		}
	}
}

func TestGeneratorInstructionValidity(t *testing.T) {
	for _, prof := range All() {
		g := MustGenerator(prof)
		for i := 0; i < 2000; i++ {
			in, ok := g.Next()
			if !ok {
				t.Fatalf("%s: stream ended", prof.Name)
			}
			if err := in.Validate(); err != nil {
				t.Fatalf("%s instr %d: %v (%+v)", prof.Name, i, err, in)
			}
		}
	}
}

func TestGeneratorMixMatchesProfile(t *testing.T) {
	for _, name := range []string{"oltp-bank", "web-appserver", "si95-gcc", "sf-swim"} {
		prof, _ := ByName(name)
		g := MustGenerator(prof)
		ins := trace.Collect(trace.NewLimitStream(g, 30000), 0)
		st := trace.Gather(ins)
		for c := 0; c < isa.NumClasses; c++ {
			got := st.Fraction(isa.Class(c))
			want := prof.Mix[c]
			if math.Abs(got-want) > 0.015 {
				t.Errorf("%s: %s fraction %.3f, profile %.3f", name, isa.Class(c), got, want)
			}
		}
	}
}

func TestGeneratorBranchBehaviour(t *testing.T) {
	// SPECfp (loop-heavy, long trips) must have a much higher
	// taken rate than legacy OLTP, and both must reuse branch PCs.
	fp := MustGenerator(Representative(SPECFP))
	lg := MustGenerator(Representative(Legacy))
	fpStats := trace.Gather(trace.Collect(trace.NewLimitStream(fp, 30000), 0))
	lgStats := trace.Gather(trace.Collect(trace.NewLimitStream(lg, 30000), 0))
	if fpStats.TakenRate() < lgStats.TakenRate() {
		t.Errorf("SPECfp taken rate %.2f < legacy %.2f",
			fpStats.TakenRate(), lgStats.TakenRate())
	}
	if fpStats.TakenRate() < 0.75 {
		t.Errorf("loop-dominated SPECfp taken rate = %.2f, want ≥ 0.75", fpStats.TakenRate())
	}
}

func TestGeneratorBranchSiteReuse(t *testing.T) {
	prof, _ := ByName("si95-go")
	g := MustGenerator(prof)
	ins := trace.Collect(trace.NewLimitStream(g, 30000), 0)
	pcs := map[uint64]int{}
	branches := 0
	for i := range ins {
		if ins[i].Class == isa.Branch {
			branches++
			pcs[ins[i].PC]++
		}
	}
	if branches == 0 {
		t.Fatal("no branches generated")
	}
	if len(pcs) > prof.BranchSites {
		t.Errorf("distinct branch PCs %d exceed sites %d", len(pcs), prof.BranchSites)
	}
	// Average reuse must be substantial for predictors to train.
	if avg := float64(branches) / float64(len(pcs)); avg < 3 {
		t.Errorf("average branch-site reuse = %.1f, want ≥ 3", avg)
	}
}

func TestGeneratorMemoryFootprint(t *testing.T) {
	// SPECfp streams through far more lines than the integer classes
	// — the source of its constant-time memory component; integer
	// classes stay comparatively compact.
	countLines := func(c Class) int {
		g := MustGenerator(Representative(c))
		st := trace.Gather(trace.Collect(trace.NewLimitStream(g, 40000), 0))
		return st.UniqueAddr
	}
	si := countLines(SPECInt)
	fp := countLines(SPECFP)
	if 2*si >= fp {
		t.Errorf("SPECint lines %d not well below SPECfp %d", si, fp)
	}
}

func TestClassILPOrdering(t *testing.T) {
	// Legacy assembler code has the tightest dependency structure
	// (lowest ILP), SPECint the loosest — this drives the class
	// ordering of optimum pipeline depths.
	lg := Representative(Legacy)
	md := Representative(Modern)
	si := Representative(SPECInt)
	if !(lg.DepP > md.DepP && md.DepP > si.DepP) {
		t.Errorf("DepP ordering violated: legacy %.2f, modern %.2f, SPECint %.2f",
			lg.DepP, md.DepP, si.DepP)
	}
	if !(lg.DepGeoP > si.DepGeoP) {
		t.Errorf("dependency distance ordering violated")
	}
}

func TestGeneratorFPLatencies(t *testing.T) {
	prof := Representative(SPECFP)
	g := MustGenerator(prof)
	seen := 0
	for i := 0; i < 20000 && seen < 200; i++ {
		in, _ := g.Next()
		if in.Class == isa.FP {
			seen++
			if int(in.FPLat) < prof.FPLatMin || int(in.FPLat) > prof.FPLatMax {
				t.Fatalf("FP latency %d outside [%d, %d]", in.FPLat, prof.FPLatMin, prof.FPLatMax)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no FP instructions in SPECfp workload")
	}
}

func TestProfileValidateRejections(t *testing.T) {
	good := Representative(SPECInt)
	cases := []struct {
		name string
		mod  func(Profile) Profile
	}{
		{"empty name", func(p Profile) Profile { p.Name = ""; return p }},
		{"mix sum", func(p Profile) Profile { p.Mix[isa.RR] += 0.5; return p }},
		{"negative mix", func(p Profile) Profile {
			p.Mix[isa.RR] -= p.Mix[isa.Load] + 2*p.Mix[isa.RR]
			p.Mix[isa.Load] = 2 * p.Mix[isa.Load]
			return p
		}},
		{"no sites", func(p Profile) Profile { p.BranchSites = 0; return p }},
		{"loop len", func(p Profile) Profile { p.AvgLoopLen = 1; return p }},
		{"biasP", func(p Profile) Profile { p.BiasP = 1.5; return p }},
		{"working set", func(p Profile) Profile { p.WorkingSetLines = 0; return p }},
		{"hot region", func(p Profile) Profile { p.HotLines = p.WorkingSetLines + 1; return p }},
		{"mem fracs", func(p Profile) Profile { p.HotFrac, p.SeqFrac, p.RandFrac = 0.5, 0.4, 0.3; return p }},
		{"dep params", func(p Profile) Profile { p.DepP = 0.5; p.DepGeoP = 0; return p }},
	}
	for _, c := range cases {
		p := c.mod(good)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// FP latency validation needs an FP-bearing profile.
	fp := Representative(SPECFP)
	fp.FPLatMin = 0
	if err := fp.Validate(); err == nil {
		t.Error("zero FP latency accepted")
	}
}

func TestGeneratorRejectsInvalidProfile(t *testing.T) {
	p := Representative(SPECInt)
	p.Name = ""
	if _, err := NewGenerator(p); err == nil {
		t.Error("invalid profile accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustGenerator did not panic")
		}
	}()
	MustGenerator(p)
}

func TestMaterialize(t *testing.T) {
	g := MustGenerator(Representative(Modern))
	s := g.Materialize(500)
	if s.Len() != 500 {
		t.Fatalf("materialized %d", s.Len())
	}
}

// TestCatalogBitStable: building the catalog twice must yield
// bit-identical profiles. Each derived float (mix shares, jittered
// fractions) feeds trace generation and content-addressed cache keys,
// so even last-bit drift — e.g. from accumulating a normalization sum
// in map-iteration order — is a reproducibility bug.
func TestCatalogBitStable(t *testing.T) {
	a := All()
	for i := 0; i < 100; i++ {
		b := All()
		if len(a) != len(b) {
			t.Fatalf("catalog size changed: %d vs %d", len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("iteration %d: profile %s not bit-stable:\n%+v\n%+v",
					i, a[j].Name, a[j], b[j])
			}
		}
	}
}
