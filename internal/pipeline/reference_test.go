package pipeline

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/invariant"
	"repro/internal/trace"
	"repro/internal/workload"
)

var updateReference = flag.Bool("update-reference", false,
	"rewrite testdata/reference_digests.txt from the per-cycle engine (intentional behavior changes only)")

// The pinned reference table. Each line names one run — workload,
// depth and config variant — and the SHA-256 of its JSON-encoded
// ResultData as the per-cycle reference engine produced it when the
// table was written. Unlike the engine differential, which compares the
// two engines with each other in the same build, the table holds the
// reference's output fixed across builds: a change to the cycle body
// that moves both engines together still fails here.

const (
	referencePath         = "testdata/reference_digests.txt"
	referenceInstructions = 3000
	referenceSampleEvery  = 97
)

var referenceDepths = []int{4, 10, 18, 24}

// referenceVariants are the config corners run on the four
// representative workloads: the bit-identity variants, a tracer-
// attached run and an observed run (invariant recorder plus activity
// sampling).
var referenceVariants = map[string]func(*Config){
	"icache": func(c *Config) {
		c.ICache = cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2}
		c.ICacheMissFO4 = 90
	},
	"nonblocking": func(c *Config) { c.NonBlockingCache = true },
	"wrongpath":   func(c *Config) { c.WrongPathActivity = true },
	"ooo":         func(c *Config) { c.OutOfOrder = true },
	"maxcycles":   func(c *Config) { c.MaxCycles = 1 << 40 },
	"tracer":      func(c *Config) { c.Tracer = NewTracer(0) },
	"observed": func(c *Config) {
		c.Invariants = invariant.New(nil)
		c.SampleInterval = referenceSampleEvery
	},
}

type referenceRun struct {
	prof    workload.Profile
	depth   int
	variant string
}

func (r referenceRun) key() string {
	return fmt.Sprintf("%s d%d %s", r.prof.Name, r.depth, r.variant)
}

// referenceRuns lists every run of the table in file order.
func referenceRuns() []referenceRun {
	var runs []referenceRun
	for _, p := range workload.All() {
		for _, d := range referenceDepths {
			runs = append(runs, referenceRun{p, d, "default"})
		}
	}
	names := []string{"icache", "maxcycles", "nonblocking", "observed", "ooo", "tracer", "wrongpath"}
	for _, c := range []workload.Class{workload.Legacy, workload.Modern, workload.SPECInt, workload.SPECFP} {
		p := workload.Representative(c)
		for _, d := range referenceDepths {
			for _, v := range names {
				runs = append(runs, referenceRun{p, d, v})
			}
		}
	}
	return runs
}

// referenceDigest runs one table entry on the given engine and returns
// the hex SHA-256 of its JSON-encoded ResultData. The per-cycle run
// reads a plain generator stream and the auto run a packed one, so both
// input paths are pinned.
func referenceDigest(t *testing.T, r referenceRun, engine EngineKind) string {
	t.Helper()
	cfg := MustDefaultConfig(r.depth)
	if mutate, ok := referenceVariants[r.variant]; ok {
		mutate(&cfg)
	}
	cfg.Engine = engine
	var src trace.Stream = trace.NewLimitStream(workload.MustGenerator(r.prof), referenceInstructions)
	if engine != EnginePerCycle {
		packed, err := trace.PackStream(workload.MustGenerator(r.prof), referenceInstructions)
		if err != nil {
			t.Fatalf("%s: pack: %v", r.key(), err)
		}
		src = packed.Stream()
	}
	res, err := Run(cfg, src)
	if err != nil {
		t.Fatalf("%s engine %d: %v", r.key(), engine, err)
	}
	if !cfg.Invariants.OK() {
		t.Errorf("%s engine %d: recorded %v", r.key(), engine, cfg.Invariants.Summary())
	}
	raw, err := json.Marshal(res.Data())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// readReferenceTable parses the table into key → digest, in file order.
func readReferenceTable(t *testing.T) (keys []string, digests map[string]string) {
	t.Helper()
	f, err := os.Open(referencePath)
	if err != nil {
		t.Fatalf("missing reference table (run with -update-reference to create): %v", err)
	}
	defer f.Close()
	digests = make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			t.Fatalf("malformed reference line %q", line)
		}
		k := strings.Join(fields[:3], " ")
		keys = append(keys, k)
		digests[k] = fields[3]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return keys, digests
}

// TestReferenceDigests checks every pinned run on both engines.
func TestReferenceDigests(t *testing.T) {
	runs := referenceRuns()
	if *updateReference {
		var b strings.Builder
		fmt.Fprintf(&b, "# workload depth variant sha256(json(ResultData)), per-cycle engine, %d instructions\n",
			referenceInstructions)
		for _, r := range runs {
			fmt.Fprintf(&b, "%s %s\n", r.key(), referenceDigest(t, r, EnginePerCycle))
		}
		if err := os.WriteFile(referencePath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keys, digests := readReferenceTable(t)
	if len(keys) != len(runs) {
		t.Fatalf("reference table has %d runs, the run list %d", len(keys), len(runs))
	}
	t.Parallel()
	for i, r := range runs {
		if keys[i] != r.key() {
			t.Fatalf("reference line %d is %q, want %q", i+1, keys[i], r.key())
		}
		want := digests[r.key()]
		for _, engine := range []EngineKind{EngineAuto, EnginePerCycle} {
			if got := referenceDigest(t, r, engine); got != want {
				t.Errorf("%s engine %d: digest %s, table %s", r.key(), engine, got, want)
			}
		}
	}
}
