// Command needled is the long-running Needle analysis service: the same
// staged pipeline the needle CLI runs, kept warm behind HTTP so repeated
// queries — ablation sweeps, dashboards, CI regressions — share one
// artifact store instead of recomputing from scratch per process.
//
// Usage:
//
//	needled                                    serve on :8917, in-memory store
//	needled -addr :9000 -jobs 8 -queue-depth 128
//	needled -cache-dir ~/.needle               persist artifacts across restarts
//	needled -timeout 2m                        cap per-request deadlines
//	needled -max-source-kb 1024 -max-instrs 100000   raise inline-source caps
//
// Endpoints (see docs/SERVICE.md for payloads):
//
//	POST /v1/analyze     one workload+config, or inline .nir source;
//	                     bytes match `needle -json` / `needle -nir -json`
//	POST /v1/sweep       all workloads, streamed as NDJSON
//	GET  /v1/workloads   the registered workload set
//	GET  /healthz        200 serving, 503 draining
//	GET  /metrics        text counters, span aggregates, cache stats
//
// SIGINT/SIGTERM triggers a graceful drain: health checks flip to 503, new
// analyses are rejected, in-flight requests finish (bounded by
// -drain-grace), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"needle/internal/obs"
	"needle/internal/pipeline"
	"needle/internal/program"
	"needle/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8917", "listen address")
		jobs       = flag.Int("jobs", 0, "analysis worker-pool size (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 64, "queued requests beyond the pool before 429s")
		timeout    = flag.Duration("timeout", 0, "server-side cap on per-request deadlines (0 = none)")
		cacheDir   = flag.String("cache-dir", "", "persist stage artifacts to this directory; restarts warm-start from it")
		cacheMaxMB = flag.Int("cache-max-mb", 0, "evict least-recently-used artifacts when -cache-dir exceeds this size (0 = unbounded)")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "how long shutdown waits for in-flight requests")

		// Request caps (0 = the serve-layer default shown).
		def         = program.DefaultLimits()
		maxBodyKB   = flag.Int("max-body-kb", 0, fmt.Sprintf("request-body cap in KiB (0 = %d)", 1<<10))
		maxSourceKB = flag.Int("max-source-kb", 0, fmt.Sprintf("inline .nir source cap in KiB (0 = %d)", def.MaxSourceBytes>>10))
		maxInstrs   = flag.Int("max-instrs", 0, fmt.Sprintf("static instruction cap for inline source (0 = %d)", def.MaxInstrs))
		maxMemWords = flag.Int("max-mem-words", 0, fmt.Sprintf("memory-image cap in words for inline source and workload requests (0 = %d)", def.MaxMemWords))
		maxSteps    = flag.Int64("max-steps", 0, fmt.Sprintf("interpreter step cap for every analysis and sweep run (0 = %d)", def.MaxSteps))
	)
	flag.Parse()

	// The daemon always records observability: /metrics is an endpoint, not
	// an opt-in flag.
	obs.Enable()

	var store pipeline.Store
	if *cacheDir != "" {
		ds, err := pipeline.NewDiskStore(*cacheDir, *cacheMaxMB)
		if err != nil {
			fatal("cache: %v", err)
		}
		store = ds
	}
	limits := def
	if *maxSourceKB > 0 {
		limits.MaxSourceBytes = *maxSourceKB << 10
	}
	if *maxInstrs > 0 {
		limits.MaxInstrs = *maxInstrs
	}
	if *maxMemWords > 0 {
		limits.MaxMemWords = *maxMemWords
	}
	if *maxSteps > 0 {
		limits.MaxSteps = *maxSteps
	}
	var bodyBytes int64
	if *maxBodyKB > 0 {
		bodyBytes = int64(*maxBodyKB) << 10
	}
	srv := serve.New(serve.Config{
		Jobs:         *jobs,
		QueueDepth:   *queueDepth,
		Timeout:      *timeout,
		Store:        store,
		MaxBodyBytes: bodyBytes,
		Limits:       limits,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "needled: serving on %s\n", *addr)

	select {
	case err := <-errc:
		fatal("listen: %v", err)
	case <-ctx.Done():
	}

	// Drain: reject new work (healthz goes 503 so load balancers eject us),
	// let in-flight handlers and the queue settle, then stop the pool.
	fmt.Fprintln(os.Stderr, "needled: draining")
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "needled: shutdown: %v\n", err)
	}
	srv.Close()
	fmt.Fprintln(os.Stderr, "needled: stopped")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "needled: "+format+"\n", args...)
	os.Exit(1)
}
