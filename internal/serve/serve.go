// Package serve is needled's HTTP serving layer: a long-running analysis
// service over a shared warm pipeline.Store, fronted by the consolidated
// core.Analyzer API. It turns the one-shot CLI flow into a multi-tenant
// system — many workloads, many configs, repeated queries over shared
// cached artifacts — with the serving concerns a daemon needs:
//
//   - a bounded worker pool with a request queue (429 on overflow),
//   - per-request deadlines propagated as context into the pipeline,
//   - singleflight collapsing of identical (program, config-fingerprint)
//     requests onto one pipeline run,
//   - inline-source ingestion: /v1/analyze accepts untrusted .nir text,
//     loaded through program.Load under configurable size/memory/step caps
//     (413/422 on violation) so hostile input cannot wedge the pool,
//   - request-scoped observability spans with an optional per-request
//     Chrome-trace download,
//   - graceful drain (in-flight and queued requests finish; new ones get
//     503) for SIGTERM handling.
//
// Endpoints, payloads, and deployment flags are documented in
// docs/SERVICE.md. The /v1/analyze response is byte-identical to
// `needle -json -workload <name>` for the same workload and config — the
// differential tests pin that contract.
package serve

import (
	"context"
	"errors"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"needle/internal/core"
	"needle/internal/obs"
	"needle/internal/pipeline"
	"needle/internal/program"
)

// Observability counters (no-ops until obs.Enable; needled always enables
// the Default registry so /metrics reflects them).
var (
	obsRequests      = obs.GetCounter("serve.requests")
	obsAnalyzeOK     = obs.GetCounter("serve.analyze.ok")
	obsVetOK         = obs.GetCounter("serve.vet.ok")
	obsSweeps        = obs.GetCounter("serve.sweeps")
	obsCollapsed     = obs.GetCounter("serve.singleflight.collapsed")
	obsRejectedQueue = obs.GetCounter("serve.rejected.queue")
	obsRejectedDrain = obs.GetCounter("serve.rejected.drain")
	obsCancelled     = obs.GetCounter("serve.cancelled")
	obsPanics        = obs.GetCounter("serve.panics")
)

// statusClientClosedRequest is the nginx-convention status for a request
// the client abandoned (disconnect or deadline) before a response existed.
const statusClientClosedRequest = 499

var (
	// errQueueFull rejects a submission when every worker is busy and the
	// queue is at depth; the client should back off and retry (429).
	errQueueFull = errors.New("serve: analysis queue full")
	// errDraining rejects new work while the server drains toward shutdown
	// (503).
	errDraining = errors.New("serve: server is draining")
	// errPanicked answers a job whose run panicked (500); the server log
	// has the stack.
	errPanicked = errors.New("serve: the analysis panicked")
)

// Config parameterizes a Server.
type Config struct {
	// Jobs is the analysis worker-pool size: the number of pipeline runs
	// (or sweeps) in flight at once. <= 0 selects GOMAXPROCS.
	Jobs int
	// QueueDepth bounds how many accepted requests may wait for a worker
	// beyond those executing; a full queue rejects with 429. <= 0 selects
	// 64.
	QueueDepth int
	// Timeout caps every request's deadline; a request's own timeoutMs may
	// tighten but never extend it. Zero means no server-imposed deadline.
	Timeout time.Duration
	// Store is the shared warm artifact store every request runs against
	// (a pipeline.DiskStore to persist across restarts). Nil selects a
	// process-lifetime in-memory pipeline.Cache.
	Store pipeline.Store
	// MaxBodyBytes caps every request body (413 beyond it). <= 0 selects
	// 1 MiB.
	MaxBodyBytes int64
	// Limits bounds analysis requests: an inline source's size, static
	// instruction count and memory image, a workload's memory image, and
	// every run's interpreter steps and traced path occurrences. The zero
	// value selects program.DefaultLimits — a service facing untrusted input is
	// never accidentally unbounded.
	Limits program.Limits
}

// DefaultLimits is program.DefaultLimits, the bound the server applies
// when Config.Limits is zero. The needlebench module calls it by this name.
func DefaultLimits() program.Limits { return program.DefaultLimits() }

// Server is the HTTP handler plus its worker pool. Create with New, serve
// with net/http, and on shutdown call Drain (stop accepting), then let
// http.Server.Shutdown settle in-flight handlers, then Close (stop the
// workers).
type Server struct {
	cfg   Config
	store pipeline.Store
	mux   *http.ServeMux

	queue chan *job
	wg    sync.WaitGroup

	qmu      sync.RWMutex // guards queue close vs. submit
	closed   bool
	draining bool

	flights   flightGroup
	collapsed atomic.Int64

	// analyze and sweep are the pipeline entry points; tests substitute
	// stubs to pin queue/deadline/drain behaviour without running real
	// analyses.
	analyze func(ctx context.Context, parent *obs.Span, p *program.Program, cfg core.Config) (*core.Analysis, error)
	sweep   func(ctx context.Context, cfg core.Config, progress core.ProgressFunc) error
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Limits == (program.Limits{}) {
		cfg.Limits = program.DefaultLimits()
	}
	s := &Server{
		cfg:   cfg,
		store: cfg.Store,
		queue: make(chan *job, cfg.QueueDepth),
	}
	if s.store == nil {
		s.store = pipeline.NewCache()
	}
	s.flights.m = make(map[string]*flight)
	s.analyze = func(ctx context.Context, parent *obs.Span, p *program.Program, cfg core.Config) (*core.Analysis, error) {
		return core.New(core.WithStore(s.store), core.WithObsSpan(parent)).Run(ctx, p, cfg)
	}
	s.sweep = func(ctx context.Context, cfg core.Config, progress core.ProgressFunc) error {
		_, err := core.New(core.WithStore(s.store), core.WithJobs(s.cfg.Jobs),
			core.WithProgress(progress)).RunAll(ctx, cfg)
		return err
	}
	s.routes()
	for i := 0; i < cfg.Jobs; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Collapsed returns how many requests were collapsed onto another
// request's pipeline run by the singleflight layer.
func (s *Server) Collapsed() int64 { return s.collapsed.Load() }

// job is one unit of queued work. run executes on a worker unless ctx is
// already done by then; done closes when the job is finished or skipped.
// err, read after done closes, is ctx's error for a skipped job,
// errPanicked when run panicked, and run's own error otherwise.
type job struct {
	ctx  context.Context
	run  func() error
	done chan struct{}
	err  error
}

// worker drains the queue until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		// A request that gave up while queued (client gone, deadline past)
		// is skipped, so abandoned work cannot clog the pool.
		if j.err = j.ctx.Err(); j.err == nil {
			j.err = j.contain()
		}
		close(j.done)
	}
}

// contain runs j, confining a panic to it: the job fails with errPanicked,
// serve.panics ticks and the stack goes to the log, and the worker goes on
// serving.
func (j *job) contain() (err error) {
	defer func() {
		if p := recover(); p != nil {
			obsPanics.Add(1)
			log.Printf("serve: job panicked: %v\n%s", p, debug.Stack())
			err = errPanicked
		}
	}()
	return j.run()
}

// runJob queues run as one job and waits for it, returning the job's err.
// It fails at once with errDraining during drain and errQueueFull when the
// queue is at depth. Unless wait is set it also returns ctx's error as soon
// as ctx ends: the job keeps its queue slot, and the worker skips it (or
// the pipeline stops between stages) now that ctx is done.
func (s *Server) runJob(ctx context.Context, run func() error, wait bool) error {
	j := &job{ctx: ctx, run: run, done: make(chan struct{})}
	if err := s.submit(j); err != nil {
		return err
	}
	if !wait {
		select {
		case <-j.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	<-j.done
	return j.err
}

// submit enqueues a job, rejecting with errDraining during drain and
// errQueueFull when the queue is at depth.
func (s *Server) submit(j *job) error {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.draining || s.closed {
		obsRejectedDrain.Add(1)
		return errDraining
	}
	select {
	case s.queue <- j:
		return nil
	default:
		obsRejectedQueue.Add(1)
		return errQueueFull
	}
}

// Drain stops accepting new analysis and sweep requests (they get 503 with
// a Retry-After); already-accepted work, queued included, still completes.
// Health checks start failing so load balancers eject the instance.
func (s *Server) Drain() {
	s.qmu.Lock()
	s.draining = true
	s.qmu.Unlock()
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	return s.draining
}

// Close drains, stops the worker pool, and waits for it to finish the
// remaining queue. Call after the HTTP listener has shut down.
func (s *Server) Close() {
	s.qmu.Lock()
	s.draining = true
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.qmu.Unlock()
	s.wg.Wait()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	obsRequests.Add(1)
	s.mux.ServeHTTP(w, r)
}
