package workload

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/isa"
)

// The catalog defines the 55 named workloads standing in for the
// paper's 55 proprietary traces: 14 legacy database/OLTP applications,
// 12 modern C++/Java applications, 16 SPEC integer workloads
// (SPECint95 + SPECint2000 program names), and 13 SPEC floating-point
// workloads. Each workload derives from its class's base profile with
// deterministic per-name jitter, so the population exhibits the spread
// the paper's Figures 6 and 7 histogram while every class stays inside
// its calibrated band (DESIGN.md §7).

var legacyNames = []string{
	"db-ledger", "db-inventory", "db-orders", "db-claims", "db-billing",
	"db-parts", "oltp-bank", "oltp-retail", "oltp-airline", "oltp-telco",
	"oltp-cards", "oltp-broker", "batch-payroll", "batch-settle",
}

var modernNames = []string{
	"web-appserver", "web-servlet", "java-jit", "java-gc", "cpp-compiler",
	"cpp-renderer", "java-msgbus", "web-search", "cpp-gamecore", "java-orm",
	"web-cache", "cpp-codec",
}

var specIntNames = []string{
	"si95-go", "si95-m88ksim", "si95-gcc", "si95-compress", "si95-li",
	"si95-ijpeg", "si95-perl", "si95-vortex",
	"si00-gzip", "si00-vpr", "si00-mcf", "si00-crafty", "si00-parser",
	"si00-gap", "si00-bzip2", "si00-twolf",
}

var specFPNames = []string{
	"sf-swim", "sf-mgrid", "sf-applu", "sf-tomcatv", "sf-su2cor",
	"sf-hydro2d", "sf-art", "sf-equake", "sf-ammp", "sf-mesa",
	"sf-lucas", "sf-sixtrack", "sf-wupwise",
}

// Count is the total number of catalog workloads (the paper's 55).
const Count = 55

// baseProfile returns the class archetype before per-name jitter.
func baseProfile(c Class) Profile {
	switch c {
	case Legacy:
		return Profile{
			Class: c,
			Mix: mix(map[isa.Class]float64{
				isa.RR: 0.37, isa.RX: 0.06, isa.Load: 0.26, isa.Store: 0.12,
				isa.Branch: 0.19,
			}),
			BranchSites: 600, LoopFrac: 0.34, BiasedFrac: 0.60,
			AvgLoopLen: 18, BiasP: 0.95,
			WorkingSetLines: 2048, HotFrac: 0.74, HotLines: 192,
			SeqFrac: 0.04, RandFrac: 0.02, StrideBytes: 136,
			DepP: 0.93, DepGeoP: 0.80, LoadHoistP: 0.94,
		}
	case Modern:
		return Profile{
			Class: c,
			Mix: mix(map[isa.Class]float64{
				isa.RR: 0.42, isa.RX: 0.05, isa.Load: 0.24, isa.Store: 0.10,
				isa.Branch: 0.17, isa.FP: 0.02,
			}),
			BranchSites: 400, LoopFrac: 0.45, BiasedFrac: 0.50,
			AvgLoopLen: 22, BiasP: 0.92,
			WorkingSetLines: 3072, HotFrac: 0.74, HotLines: 176,
			SeqFrac: 0.05, RandFrac: 0.04, StrideBytes: 96,
			DepP: 0.62, DepGeoP: 0.48, LoadHoistP: 0.75,
			FPLatMin: 6, FPLatMax: 16,
		}
	case SPECInt:
		return Profile{
			Class: c,
			Mix: mix(map[isa.Class]float64{
				isa.RR: 0.50, isa.RX: 0.04, isa.Load: 0.22, isa.Store: 0.09,
				isa.Branch: 0.15,
			}),
			BranchSites: 200, LoopFrac: 0.60, BiasedFrac: 0.36,
			AvgLoopLen: 48, BiasP: 0.92,
			WorkingSetLines: 1536, HotFrac: 0.78, HotLines: 200,
			SeqFrac: 0.06, RandFrac: 0.03, StrideBytes: 64,
			DepP: 0.20, DepGeoP: 0.12, LoadHoistP: 0.50,
		}
	case SPECFP:
		return Profile{
			Class: c,
			Mix: mix(map[isa.Class]float64{
				isa.RR: 0.24, isa.RX: 0.03, isa.Load: 0.30, isa.Store: 0.10,
				isa.Branch: 0.07, isa.FP: 0.26,
			}),
			BranchSites: 80, LoopFrac: 0.85, BiasedFrac: 0.12,
			AvgLoopLen: 120, BiasP: 0.95,
			WorkingSetLines: 16384, HotFrac: 0.32, HotLines: 96,
			SeqFrac: 0.35, RandFrac: 0.05, StrideBytes: 256,
			DepP: 0.35, DepGeoP: 0.22, LoadHoistP: 0.60,
			FPLatMin: 6, FPLatMax: 20,
		}
	default:
		panic(fmt.Sprintf("workload: unknown class %d", c))
	}
}

func mix(m map[isa.Class]float64) [isa.NumClasses]float64 {
	var out [isa.NumClasses]float64
	for c, f := range m {
		out[c] = f
	}
	// Sum in fixed array order: accumulating while ranging over the
	// map would make the normalized shares differ in the last bit from
	// call to call (float addition is not associative), and with them
	// every derived profile and cache key.
	sum := 0.0
	for _, f := range out {
		sum += f
	}
	// Normalize exactly to 1 to satisfy Validate.
	for i := range out {
		out[i] /= sum
	}
	return out
}

// derive builds the named workload from its class base with
// deterministic jitter, so that the 55 workloads populate their class
// band rather than collapsing onto four points.
func derive(name string, c Class) Profile {
	p := baseProfile(c)
	p.Name = name
	p.Seed = hashString(name)
	r := newRNG(p.Seed ^ 0xC0FFEE)

	jit := func(base, rel float64) float64 {
		return base * (1 + rel*(2*r.Float64()-1))
	}

	// Instruction mix: wobble the memory, branch and FP shares; RR
	// absorbs the slack via renormalization.
	p.Mix[isa.Load] = jit(p.Mix[isa.Load], 0.20)
	p.Mix[isa.Store] = jit(p.Mix[isa.Store], 0.25)
	p.Mix[isa.Branch] = jit(p.Mix[isa.Branch], 0.20)
	p.Mix[isa.RX] = jit(p.Mix[isa.RX], 0.35)
	if p.Mix[isa.FP] > 0 {
		p.Mix[isa.FP] = jit(p.Mix[isa.FP], 0.40)
	}
	sum := 0.0
	for _, f := range p.Mix {
		sum += f
	}
	for i := range p.Mix {
		p.Mix[i] /= sum
	}

	// Control behaviour.
	p.BranchSites = int(jit(float64(p.BranchSites), 0.3))
	p.LoopFrac = clamp01(jit(p.LoopFrac, 0.2))
	p.BiasedFrac = clamp01(min(jit(p.BiasedFrac, 0.2), 1-p.LoopFrac))
	p.AvgLoopLen = max(3, int(jit(float64(p.AvgLoopLen), 0.4)))
	p.BiasP = clamp01(jit(p.BiasP, 0.06))

	// Memory behaviour.
	p.WorkingSetLines = max(256, int(jit(float64(p.WorkingSetLines), 0.7)))
	p.HotFrac = clamp01(min(jit(p.HotFrac, 0.12), 0.88))
	p.SeqFrac = clamp01(min(jit(p.SeqFrac, 0.4), 1-p.HotFrac))
	p.RandFrac = clamp01(min(jit(p.RandFrac, 0.5), 1-p.HotFrac-p.SeqFrac))
	p.StrideBytes = int64(max(8, int(jit(float64(p.StrideBytes), 0.4))))

	// Dependency structure: the main ILP lever, spread generously so
	// the per-class optimum distributions have the paper's width.
	p.DepP = clamp01(jit(p.DepP, 0.30))
	p.DepGeoP = clamp01(jit(p.DepGeoP, 0.30))
	p.LoadHoistP = clamp01(jit(p.LoadHoistP, 0.15))
	if p.DepGeoP <= 0 {
		p.DepGeoP = 0.05
	}

	if p.Mix[isa.FP] > 0 {
		p.FPLatMin = max(2, int(jit(float64(p.FPLatMin), 0.4)))
		p.FPLatMax = max(p.FPLatMin, int(jit(float64(p.FPLatMax), 0.4)))
	}
	return p
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// catalogGroups lists each class's workload names, in catalog class order.
var catalogGroups = []struct {
	names []string
	class Class
}{
	{legacyNames, Legacy},
	{modernNames, Modern},
	{specIntNames, SPECInt},
	{specFPNames, SPECFP},
}

// All returns the full 55-workload catalog in a stable order
// (legacy, modern, SPECint, SPECfp; alphabetical within class).
func All() []Profile {
	var out []Profile
	for _, group := range catalogGroups {
		names := append([]string(nil), group.names...)
		sort.Strings(names)
		for _, n := range names {
			out = append(out, derive(n, group.class))
		}
	}
	return out
}

// ByClass returns the catalog workloads of one class.
func ByClass(c Class) []Profile {
	var out []Profile
	for _, p := range All() {
		if p.Class == c {
			out = append(out, p)
		}
	}
	return out
}

// ByName returns the named catalog workload.
func ByName(name string) (Profile, bool) {
	// A profile derives from its name and class alone, so only the
	// named one is built.
	for _, group := range catalogGroups {
		if slices.Contains(group.names, name) {
			return derive(name, group.class), true
		}
	}
	return Profile{}, false
}

// Names returns every catalog workload name in catalog order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, p := range all {
		names[i] = p.Name
	}
	return names
}

// Representative returns the class's figure-workload: the profile
// used when the paper plots "a modern workload" (Fig. 4a), "a SPECint
// workload" (Fig. 4b), or "a floating point workload" (Fig. 4c).
func Representative(c Class) Profile {
	switch c {
	case Legacy:
		return mustByName("oltp-bank")
	case Modern:
		return mustByName("web-appserver")
	case SPECInt:
		return mustByName("si95-gcc")
	case SPECFP:
		return mustByName("sf-applu")
	default:
		panic(fmt.Sprintf("workload: unknown class %d", c))
	}
}

func mustByName(name string) Profile {
	p, ok := ByName(name)
	if !ok {
		panic("workload: missing catalog entry " + name)
	}
	return p
}
