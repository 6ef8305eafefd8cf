// Command depthd serves pipeline-depth studies over HTTP: sweep as a
// service. Clients POST a study spec (workloads × depths × power model
// × metric exponent) to /v1/studies and get back a job ID; a bounded
// worker pool drains the queue through the core sweep engine, sharing
// one content-addressed result cache, one telemetry registry and one
// span tracer across all jobs — so a repeated study is a cache lookup,
// not a re-simulation.
//
// Usage:
//
//	depthd -addr :8080
//	depthd -addr :8080 -workers 4 -queue-cap 64 -cache-dir ~/.cache/repro
//
// Walkthrough:
//
//	curl -d '{"workloads":["si95-gcc"],"min_depth":4,"max_depth":20}' \
//	    localhost:8080/v1/studies          # → {"id":"j000001-…","state":"queued",…}
//	curl localhost:8080/v1/studies/j000001-…          # status
//	curl -N localhost:8080/v1/studies/j000001-…/events # SSE progress
//	curl localhost:8080/v1/studies/j000001-…/result    # deterministic result
//	curl -X DELETE localhost:8080/v1/studies/j000001-… # cancel
//	curl localhost:8080/metrics                        # Prometheus exposition
//
// /metrics is the one metrics surface: history, rates, quantiles and
// alerting belong to whatever scrapes it. With -ledger-dir every
// terminal request and job appends one canonical JSONL line there;
// -stall-timeout arms the job watchdog (stalls count in
// serve_jobs_stalled_total, and the first one dumps goroutines into
// -dump-dir).
//
// SIGINT/SIGTERM drains gracefully: intake closes (submissions 503,
// readyz 503), queued and running jobs finish within -drain-timeout,
// then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/logx"
	"repro/internal/resultcache"
	"repro/internal/serve"
	"repro/internal/serve/spec"
	"repro/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("depthd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
		workers  = fs.Int("workers", 2, "concurrent studies (worker pool size)")
		queueCap = fs.Int("queue-cap", 16, "queued-study bound; submissions beyond it get 429")
		parallel = fs.Int("parallel", runtime.NumCPU(), "per-study workload parallelism")
		maxJobs  = fs.Int("max-jobs", 1024, "retained job records before old terminal jobs are evicted")

		cacheDir      = fs.String("cache-dir", "", "result cache directory (empty: in-memory cache only)")
		cacheReadonly = fs.Bool("cache-readonly", false, "reuse cached points but never write")
		cacheClear    = fs.Bool("cache-clear", false, "drop all cached entries on startup")

		maxWorkloads    = fs.Int("max-workloads", 0, "per-study workload cap (0: catalog size)")
		maxDepths       = fs.Int("max-depths", 0, "per-study depth cap (0: full simulable range)")
		maxPoints       = fs.Int("max-points", 0, "per-study design-point cap (0: workloads×depths)")
		maxInstructions = fs.Int("max-instructions", 0, "per-study instruction cap (0: default limit)")
		drainTimeout    = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on shutdown")

		ledgerDir    = fs.String("ledger-dir", "", "append one canonical JSONL event per terminal request/job here (empty: off)")
		stallTimeout = fs.Duration("stall-timeout", 0, "flag a running job stalled after this long without progress (0: watchdog off)")
		dumpDir      = fs.String("dump-dir", "", "directory for the first-stall goroutine dump (empty: no dump)")
	)
	logOpts := logx.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	log, err := logOpts.Logger(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "depthd: %v\n", err)
		return 2
	}

	reg := telemetry.NewRegistry()
	var cache *resultcache.Cache
	if *cacheDir != "" {
		cache, err = resultcache.Open(resultcache.Options{
			Dir: *cacheDir, ReadOnly: *cacheReadonly, Metrics: reg,
		})
		if err != nil {
			fmt.Fprintf(stderr, "depthd: open cache: %v\n", err)
			return 1
		}
		if *cacheClear {
			if err := cache.Clear(); err != nil {
				fmt.Fprintf(stderr, "depthd: clear cache: %v\n", err)
				return 1
			}
		}
	}

	limits := spec.DefaultLimits()
	if *maxWorkloads > 0 {
		limits.MaxWorkloads = *maxWorkloads
	}
	if *maxDepths > 0 {
		limits.MaxDepths = *maxDepths
	}
	if *maxPoints > 0 {
		limits.MaxPoints = *maxPoints
	}
	if *maxInstructions > 0 {
		limits.MaxInstructions = *maxInstructions
	}

	srv, err := serve.New(serve.Options{
		Workers:     *workers,
		QueueCap:    *queueCap,
		Parallelism: *parallel,
		Limits:      limits,
		MaxJobs:     *maxJobs,
		Cache:       cache,
		Registry:    reg,
		Log:         log,

		LedgerDir:    *ledgerDir,
		StallTimeout: *stallTimeout,
		DumpDir:      *dumpDir,
	})
	if err != nil {
		fmt.Fprintf(stderr, "depthd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "depthd: listen: %v\n", err)
		srv.Close()
		return 1
	}
	// The resolved address line is machine-readable on purpose: the CI
	// smoke job and the boot test parse it to find a :0-assigned port.
	fmt.Fprintf(stdout, "depthd listening on %s\n", ln.Addr())
	log.Info("depthd up", "addr", ln.Addr().String(),
		"workers", *workers, "queue_cap", *queueCap, "cache_dir", *cacheDir)

	if err := srv.Serve(ctx, ln, *drainTimeout); err != nil {
		fmt.Fprintf(stderr, "depthd: %v\n", err)
		return 1
	}
	log.Info("depthd drained and stopped")
	return 0
}
