// The core entry point. An Analyzer is one configured value: construct it
// once with New and the functional options, then Run single programs,
// RunWorkload registry entries, or RunAll sweeps against it. Every embedder
// — the CLI, the tables harness, the needled daemon, the examples — holds
// an Analyzer.

package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"needle/internal/obs"
	"needle/internal/pipeline"
	"needle/internal/program"
	"needle/internal/workloads"
)

// Analyzer runs Needle analyses against one shared configuration: an
// optional artifact store, a sweep worker-pool bound, a progress sink, and
// an observability span to parent runs under. The zero value (New with no
// options) analyzes everything fresh with GOMAXPROCS sweep parallelism.
//
// An Analyzer is immutable after New and safe for concurrent use: the
// needled daemon serves every request through a single Analyzer over a
// shared warm store.
type Analyzer struct {
	store    pipeline.Store
	jobs     int
	progress ProgressFunc
	span     *obs.Span
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// New returns an Analyzer configured by the given options. Nil options are
// ignored, so callers can pass conditionally-built option values directly.
func New(opts ...Option) *Analyzer {
	az := &Analyzer{}
	for _, o := range opts {
		if o != nil {
			o(az)
		}
	}
	return az
}

// WithStore shares stage artifacts across every run of the Analyzer — and
// with any other Analyzer handed the same store. An in-memory
// pipeline.Cache shares within the process; a pipeline.DiskStore also
// warm-starts from artifacts a previous process persisted. A nil store
// computes everything fresh; results are byte-identical either way.
func WithStore(s pipeline.Store) Option {
	return func(az *Analyzer) { az.store = s }
}

// WithJobs bounds RunAll's worker pool: GOMAXPROCS when n <= 0, serial when
// n == 1. Run ignores it.
func WithJobs(n int) Option {
	return func(az *Analyzer) { az.jobs = n }
}

// WithProgress registers a callback RunAll invokes once per workload as its
// analysis completes (in completion order, which under a parallel pool is
// not registration order). Calls are serialized — the callback never runs
// concurrently with itself — so it may write to a stream without locking;
// the needled daemon's NDJSON sweep endpoint is exactly that.
func WithProgress(fn ProgressFunc) Option {
	return func(az *Analyzer) { az.progress = fn }
}

// WithObsSpan parents every run's observability spans under sp instead of
// recording root spans on the Default registry. Because child spans inherit
// the parent's registry, handing a span from a private enabled
// obs.Registry scopes the entire run's timeline to that registry — the
// daemon uses this for per-request Chrome traces that don't interleave with
// other tenants' requests.
func WithObsSpan(sp *obs.Span) Option {
	return func(az *Analyzer) { az.span = sp }
}

// Progress reports one workload analysis completed by RunAll.
type Progress struct {
	// Workload is the analyzed workload; Index is its registration-order
	// position in workloads.All().
	Workload *workloads.Workload
	Index    int
	// Done counts analyses completed so far, this one included; Total is
	// the sweep size.
	Done  int
	Total int
	// Analysis is the completed analysis, nil when Err is non-nil.
	Analysis *Analysis
	Err      error
}

// ProgressFunc consumes RunAll progress events.
type ProgressFunc func(Progress)

// Run executes the full pipeline on one program: aggressive inlining of
// call-bearing kernels (Section II-A), profiling, braid/path selection,
// frame construction, and the target evaluations (offload simulation and
// the HLS estimate). The program can come from anywhere — the workload
// registry (see RunWorkload) or program.Load over user source. Zero-valued Config fields are filled from
// DefaultConfig field by field. Cancelling ctx stops the run between
// pipeline stages and returns ctx.Err(); a cancelled run never memoizes
// its interruption in the store.
func (az *Analyzer) Run(ctx context.Context, p *program.Program, cfg Config) (*Analysis, error) {
	return az.run(ctx, p, cfg, az.span)
}

// RunWorkload materializes a registered workload at the config's problem
// size (cfg.N, 0 selecting the workload default) and Runs it. The returned
// Analysis carries the registry entry in Workload.
func (az *Analyzer) RunWorkload(ctx context.Context, w *workloads.Workload, cfg Config) (*Analysis, error) {
	return az.runWorkload(ctx, w, cfg, az.span)
}

// run is Run parented under an explicit span (the sweep passes each
// worker's span so per-program timelines land on the worker's lane).
func (az *Analyzer) run(ctx context.Context, p *program.Program, cfg Config, parent *obs.Span) (*Analysis, error) {
	obsAnalyses.Add(1)
	arts, err := pipeline.Run(p, cfg, pipeline.RunOptions{Parent: parent, Store: az.store, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return fromArtifacts(arts), nil
}

func (az *Analyzer) runWorkload(ctx context.Context, w *workloads.Workload, cfg Config, parent *obs.Span) (*Analysis, error) {
	p, err := w.Program(cfg.N)
	if err != nil {
		return nil, err
	}
	a, err := az.run(ctx, p, cfg, parent)
	if err != nil {
		return nil, err
	}
	a.Workload = w
	return a, nil
}

// RunAll runs the pipeline over every registered workload on the bounded
// worker pool (one worker at WithJobs(1)). Each workload's analysis owns
// its manager and shares no mutable state with the others (beyond
// store-shared read-only artifacts), so the result slice is in
// registration order and identical at every pool size; on failure the
// error of the earliest-registered failing workload is returned, and no
// workload registered after it is started.
//
// Cancelling ctx stops the sweep promptly — between workloads and between
// the stages of any analysis in flight — and returns ctx.Err().
func (az *Analyzer) RunAll(ctx context.Context, cfg Config) ([]*Analysis, error) {
	ws := workloads.All()
	jobs := az.jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(ws) {
		jobs = len(ws)
	}
	root := az.span.ChildOnTrack("sweep", 0).
		SetArg("workloads", len(ws)).SetArg("jobs", jobs)
	defer root.End()

	var (
		pmu  sync.Mutex
		done int
	)
	report := func(i int, a *Analysis, err error) {
		if az.progress == nil {
			return
		}
		pmu.Lock()
		defer pmu.Unlock()
		done++
		az.progress(Progress{Workload: ws[i], Index: i, Done: done, Total: len(ws), Analysis: a, Err: err})
	}

	out := make([]*Analysis, len(ws))
	errs := make([]error, len(ws))
	// failed is the index of the earliest workload seen to fail. No worker
	// starts a workload registered after it, so a sweep stops at its first
	// failure at every -j; one registered before it still runs, so the
	// error returned is the earliest-registered failure's.
	var failed atomic.Int64
	failed.Store(int64(len(ws)))
	idx := make(chan int)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			// One span per worker on its own track: the exported timeline
			// shows each worker's utilization as one lane.
			wsp := root.ChildOnTrack(fmt.Sprintf("worker-%d", j+1), j+1)
			defer wsp.End()
			for i := range idx {
				if ctx.Err() != nil || int64(i) > failed.Load() {
					continue
				}
				out[i], errs[i] = az.runWorkload(ctx, ws[i], cfg, wsp)
				report(i, out[i], errs[i])
				if errs[i] == nil {
					obsSweepUnits.Add(1)
					continue
				}
				for f := failed.Load(); int64(i) < f; f = failed.Load() {
					if failed.CompareAndSwap(f, int64(i)) {
						break
					}
				}
			}
		}(j)
	}
feed:
	for i := range ws {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
