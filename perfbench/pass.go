package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// Streams of the seed: every seed-derived input draws from its own
// stream, so adding a draw to one never shifts another.
const (
	streamProfileSeed = iota + 1
	streamCrossCheck
	streamServeClient
)

// passOpts configures one child process: one pass of one workload.
type passOpts struct {
	workload    string
	seed        uint64
	parallelism int     // catalog Parallelism; serve-mixed clients, workers and job Parallelism
	seconds     float64 // serve-mixed timed window
	traced      bool
	setupOnly   bool // set up, tear down, report setup time only
	tmp         string
}

// simStats are the modelled statistics of the simulated points: exact,
// repeatable, and untouched by any speed-only change.
type simStats struct {
	Cycles       uint64             `json:"cycles"`
	Instructions uint64             `json:"instructions"`
	Budget       []uint64           `json:"budget"`
	OptDepths    []float64          `json:"opt_depths"` // BIPS³/W (gated) cubic-fit optimum per workload
	OptByClass   map[string]float64 `json:"opt_by_class"`
	TheoryDepths []float64          `json:"theory_depths"`
}

// passResult is what a child prints on its last line of stdout.
type passResult struct {
	SetupS      []float64          `json:"setup_s"`
	WallS       float64            `json:"wall_s"`
	FreshWallS  float64            `json:"fresh_wall_s"` // catalog: the full-catalog study alone
	Points      int                `json:"points"`       // design points delivered in the timed window
	FreshPoints int                `json:"fresh_points"`
	Studies     int                `json:"studies"`
	FreshMS     []float64          `json:"fresh_ms"`
	RepeatMS    []float64          `json:"repeat_ms"`
	HeapMB      float64            `json:"heap_mb"`
	RSSMB       float64            `json:"rss_mb"`
	Check       tally              `json:"check"`
	Digest      string             `json:"digest"`
	Sim         simStats           `json:"sim"`
	Layers      map[string]float64 `json:"layers"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
}

// simStatsOf sums the modelled statistics of the sweeps.
func simStatsOf(sweeps []*core.Sweep, opts []core.Optimum, theory []float64) simStats {
	s := simStats{Budget: make([]uint64, pipeline.NumCycleBuckets), OptByClass: map[string]float64{}}
	for _, sw := range sweeps {
		for _, p := range sw.Points {
			s.Cycles += p.Result.Cycles
			s.Instructions += p.Result.Instructions
			for b, c := range p.Result.CycleBudget {
				s.Budget[b] += c
			}
		}
	}
	byClass := map[string][]float64{}
	for _, o := range opts {
		s.OptDepths = append(s.OptDepths, o.Depth)
		byClass[o.Class.String()] = append(byClass[o.Class.String()], o.Depth)
	}
	for c, ds := range byClass {
		s.OptByClass[c] = median(ds)
	}
	s.TheoryDepths = theory
	return s
}

// runPass is the child entry point: parse the pass options, run the
// pass and print its result as one JSON line.
func runPass(args []string) int {
	fs := flag.NewFlagSet("pass", flag.ContinueOnError)
	var o passOpts
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.parallelism, "parallelism", runtime.NumCPU(), "study parallelism")
	fs.Float64Var(&o.seconds, "seconds", 10, "serve-mixed timed window")
	fs.BoolVar(&o.traced, "traced", false, "attach span observers")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "set up and tear down only")
	fs.StringVar(&o.tmp, "tmp", "", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var res passResult
	var err error
	switch o.workload {
	case "catalog-cold", "catalog-observed":
		res, err = runCatalogPass(o)
	case "serve-mixed":
		res, err = runServePass(o)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench pass:", err)
		return 1
	}
	res.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if res.Layers == nil {
		res.Layers = map[string]float64{}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench pass:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// heapRetainedMB forces a collection and returns the live heap.
func heapRetainedMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
