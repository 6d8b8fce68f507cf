// HTTP endpoint handlers. Payload shapes and status codes are documented
// in docs/SERVICE.md; the summary bytes themselves are pinned by the golden
// files under internal/core/testdata and the serve differential tests.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"needle/internal/ballarus"
	"needle/internal/core"
	"needle/internal/interp"
	"needle/internal/obs"
	"needle/internal/passes"
	"needle/internal/pipeline"
	"needle/internal/program"
	"needle/internal/sim"
	"needle/internal/vet"
	"needle/internal/workloads"
)

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/analyze", s.handle(s.handleAnalyze))
	s.mux.HandleFunc("/v1/vet", s.handle(s.handleVet))
	s.mux.HandleFunc("/v1/sweep", s.handle(s.handleSweep))
	s.mux.HandleFunc("/v1/workloads", s.handle(s.handleWorkloads))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
}

// handle adapts an endpoint that returns its failure: the error is
// answered by writeError.
func (s *Server) handle(h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := h(w, r); err != nil {
			s.writeError(w, err)
		}
	}
}

// analyzeRequest is the POST /v1/analyze payload. Exactly one of Workload
// and Source selects the program.
type analyzeRequest struct {
	// Workload names a built-in kernel to analyze (see GET /v1/workloads).
	Workload string `json:"workload"`
	// Source is inline .nir program text to analyze instead of a built-in
	// workload. It is parsed and verified under the server's limits
	// (unprocessable source → 422, over-limit source → 413) and analyzed
	// byte-identically to `needle -nir <file> -json`.
	Source string `json:"source"`
	// Entry names Source's entry function; empty selects its first.
	Entry string `json:"entry"`
	// MemWords sizes Source's memory image in 64-bit words; 0 selects the
	// loader default (program.DefaultMemWords).
	MemWords int `json:"memWords"`
	// Args are Source's entry-function arguments as literals (int64, or
	// "f:"-prefixed float64), exactly as `needle -args` takes them.
	Args []string `json:"args"`
	// N overrides the problem size; 0 keeps the workload default. It is a
	// convenience alias for config.N and wins when both are set. Workload
	// requests only.
	N int `json:"n"`
	// Config is a full pipeline configuration; absent fields are filled
	// from the paper's defaults exactly as the CLI fills them.
	Config *core.Config `json:"config"`
	// TimeoutMs tightens (never extends) the server's per-request deadline.
	TimeoutMs int64 `json:"timeoutMs"`
}

// sweepRequest is the POST /v1/sweep payload; an empty body is a default
// sweep.
type sweepRequest struct {
	N         int          `json:"n"`
	Config    *core.Config `json:"config"`
	TimeoutMs int64        `json:"timeoutMs"`
}

// statusError is a request the server refuses with a status of its own
// choosing; its text is the wrapped error's, unchanged.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// statusErr formats an error that answers with status.
func statusErr(status int, format string, args ...any) error {
	return &statusError{status, fmt.Errorf(format, args...)}
}

// bodyBufs holds request-body buffers for reuse. Decoding copies what dst
// keeps, so no request refers to a buffer once decodeBody returns; a buffer
// a body grew past maxPooledBody is left to the collector.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest body buffer kept for reuse, well above the
// few KiB of a typical inline program.
const maxPooledBody = 64 << 10

// decodeBody strictly decodes a JSON request body into dst, bounded by the
// server's body cap. The whole capped body is read before any of it is
// decoded. An empty body is accepted when allowEmpty is set (dst is left
// zero). An over-cap body surfaces as *http.MaxBytesError in the chain,
// which errorStatus maps to 413; every other failure is a 400.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any, allowEmpty bool) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		return statusErr(http.StatusBadRequest, "reading request body: %w", err)
	}
	body := buf.Bytes()
	if len(body) == 0 {
		if allowEmpty {
			return nil
		}
		return statusErr(http.StatusBadRequest, "empty request body")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return statusErr(http.StatusBadRequest, "decoding request: %w", err)
	}
	if dec.More() {
		return statusErr(http.StatusBadRequest, "trailing data after request object")
	}
	return nil
}

// resolveConfig builds a request's effective pipeline config the way
// cmd/needle does — the explicit config, then the n override — and bounds
// its run, before any work is queued. A hardware config the models cannot
// run fails sim.Config.Check (400). The config is then materialized so the
// run caps can be enforced: an explicit bound over a cap is rejected
// (422), an absent (unlimited) one is clamped. A cap changes only how a
// runaway program fails, never the summary bytes of one that finishes
// under it, so CLI/serve byte-identity holds for every such program.
func (s *Server) resolveConfig(cfg *core.Config, n int) (core.Config, error) {
	out := core.DefaultConfig()
	if cfg != nil {
		out = *cfg
	}
	if n != 0 {
		out.N = n
	}
	if err := out.Sim.Check(); err != nil {
		return out, err
	}
	out = out.WithDefaults()
	for _, b := range []struct {
		name string
		val  *int64
		max  int64
	}{
		{"maxSteps", &out.Sim.MaxSteps, s.cfg.Limits.MaxSteps},
		{"maxOccurrences", &out.Sim.MaxOccurrences, s.cfg.Limits.MaxOccurrences},
	} {
		switch {
		case b.max <= 0:
		case *b.val > b.max:
			return out, statusErr(http.StatusUnprocessableEntity, "config.sim %s %d exceeds the server cap %d", b.name, *b.val, b.max)
		case *b.val <= 0:
			*b.val = b.max
		}
	}
	return out, nil
}

// requestContext applies the effective deadline: the server cap, tightened
// by the request's own timeoutMs.
func (s *Server) requestContext(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if timeoutMs > 0 {
		t := time.Duration(timeoutMs) * time.Millisecond
		if d == 0 || t < d {
			d = t
		}
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// pipelineRejections are the typed errors a verified program may fail the
// pipeline with: calls the inliner cannot flatten, a fault (a phi with no
// value for the edge taken included) or the step or occurrence cap while it
// is profiled, or a CFG the Ball-Larus numbering refuses. Each is
// a property of the program the request sent, so each is a 422.
var pipelineRejections = []error{
	passes.ErrInlineDepth,
	interp.ErrDivideByZero,
	interp.ErrOutOfBounds,
	interp.ErrStepLimit,
	interp.ErrOccurrenceLimit,
	interp.ErrCallDepth,
	interp.ErrNoPhiEdge,
	ballarus.ErrTooManyPaths,
	ballarus.ErrIrreducible,
}

// errorStatus maps the error a request failed with to its HTTP status. It
// is the only place a failed request's status is chosen.
func errorStatus(err error) int {
	var (
		tooBig  *http.MaxBytesError
		refused *statusError
	)
	switch {
	case errors.As(err, &tooBig), errors.Is(err, program.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &refused):
		return refused.status
	case errors.Is(err, program.ErrInvalid):
		return http.StatusUnprocessableEntity
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case isCancellation(err):
		// 499 (nginx convention): the request's deadline or client
		// connection ended the run before it produced a response.
		return statusClientClosedRequest
	case errors.Is(err, sim.ErrConfig):
		return http.StatusBadRequest
	}
	for _, rejection := range pipelineRejections {
		if errors.Is(err, rejection) {
			return http.StatusUnprocessableEntity
		}
	}
	return http.StatusInternalServerError
}

// writeError emits a JSON error object with the status code err maps to.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := errorStatus(err)
	switch status {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "1")
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "5")
	case statusClientClosedRequest:
		obsCancelled.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck // response write
}

// serveProgram is the prologue /v1/analyze and /v1/vet share — the method
// check, the body, the program and its config, and the request's
// deadline — after which it hands the request to serve.
func (s *Server) serveProgram(w http.ResponseWriter, r *http.Request, serve func(context.Context, *program.Program, core.Config) error) error {
	if r.Method != http.MethodPost {
		return statusErr(http.StatusMethodNotAllowed, "POST required")
	}
	var req analyzeRequest
	if err := s.decodeBody(w, r, &req, false); err != nil {
		return err
	}
	p, cfg, err := s.resolveProgram(&req)
	if err != nil {
		return err
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	return serve(ctx, p, cfg)
}

// resolveProgram turns an analyze or vet request into the program to run
// and the effective config, applying the server's limits.
func (s *Server) resolveProgram(req *analyzeRequest) (*program.Program, core.Config, error) {
	cfg, err := s.resolveConfig(req.Config, req.N)
	switch {
	case err != nil:
		return nil, cfg, err
	case req.Workload != "" && req.Source != "":
		return nil, cfg, statusErr(http.StatusBadRequest, "workload and source are mutually exclusive")
	case req.Workload == "" && req.Source == "":
		return nil, cfg, statusErr(http.StatusBadRequest, "missing workload name or source")
	case req.Workload != "" && (req.Entry != "" || req.MemWords != 0 || len(req.Args) != 0):
		return nil, cfg, statusErr(http.StatusBadRequest, "entry/memWords/args apply only to source requests")
	case req.Source != "":
		p, err := program.Load(req.Source, program.LoadOptions{
			Entry:    req.Entry,
			MemWords: req.MemWords,
			Args:     req.Args,
			Limits:   s.cfg.Limits,
		})
		return p, cfg, err
	}
	wl := workloads.ByName(req.Workload)
	if wl == nil {
		return nil, cfg, statusErr(http.StatusNotFound, "unknown workload %q (see /v1/workloads)", req.Workload)
	}
	n := cfg.N
	if n <= 0 {
		n = wl.DefaultN
	}
	if max := s.cfg.Limits.MaxMemWords; max > 0 && wl.MemWords(n) > max {
		return nil, cfg, fmt.Errorf("%w: %s at n=%d needs a memory image of %d words, cap is %d",
			program.ErrTooLarge, wl.Name, n, wl.MemWords(n), max)
	}
	p, err := wl.Program(cfg.N)
	return p, cfg, err
}

// handleAnalyze serves POST /v1/analyze: one program — a built-in workload
// or inline .nir source — one config, the exact bytes `needle -json` would
// print for the same input. With ?trace=1 the response is instead a
// request-scoped Chrome trace of the run.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) error {
	return s.serveProgram(w, r, func(ctx context.Context, p *program.Program, cfg core.Config) error {
		if wantTrace(r) {
			return s.analyzeTrace(ctx, w, p, cfg)
		}
		// Identical concurrent requests collapse onto one pipeline run: the
		// key is the pipeline's own cumulative fingerprint (program content
		// digest included), so two requests share a flight exactly when
		// their runs would be byte-identical — same-named but
		// different-bodied inline programs never collapse onto each other.
		key := pipeline.Fingerprint(p, cfg)
		body, err := s.flights.do(ctx, key,
			func() { s.collapsed.Add(1); obsCollapsed.Add(1) },
			func() ([]byte, error) { return s.analyzeBytes(ctx, nil, p, cfg) })
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Needle-Schema-Version", fmt.Sprint(core.SummarySchemaVersion))
		w.Write(body) //nolint:errcheck // response write
		return nil
	})
}

// handleVet serves POST /v1/vet: the static-analysis diagnostic suite over
// one program — a built-in workload or inline .nir source, selected exactly
// like /v1/analyze and under the same ingestion limits — without executing
// it. The response is the vet report, byte-identical to
// `needle -vet -json` for the same program (plus the trailing newline
// Println emits). Diagnostics, including error severity, are the payload:
// the HTTP status is 200 whenever the program ingests.
//
// Vet is pure static analysis — cheap relative to a pipeline run — but it
// still walks untrusted programs, so it occupies a pool slot like every
// other unit of work.
func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) error {
	return s.serveProgram(w, r, func(ctx context.Context, p *program.Program, _ core.Config) error {
		var body []byte
		err := s.runJob(ctx, func() (err error) {
			body, err = vet.MarshalReport(vet.Check(nil, p))
			return err
		}, false)
		if err != nil {
			return err
		}
		obsVetOK.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Needle-Vet-Schema-Version", fmt.Sprint(vet.ReportSchemaVersion))
		w.Write(append(body, '\n')) //nolint:errcheck // response write
		return nil
	})
}

// analyzeTrace runs the analysis under a private observability registry
// and responds with its Chrome trace-event timeline. Trace requests bypass
// the singleflight (a collapsed request would download another tenant's
// spans) but still occupy a pool slot.
func (s *Server) analyzeTrace(ctx context.Context, w http.ResponseWriter, p *program.Program, cfg core.Config) error {
	reg := &obs.Registry{}
	reg.Enable()
	root := reg.StartOnTrack("request: analyze "+p.Name, 0)
	_, err := s.analyzeBytes(ctx, root, p, cfg)
	root.End()
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "needle-trace-"+p.Name+".json"))
	reg.WriteChromeTrace(w) //nolint:errcheck // response write
	return nil
}

// wantTrace reports whether the request asked for a per-request Chrome
// trace instead of the summary payload.
func wantTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// analyzeBytes queues one pipeline run and marshals its summary into the
// CLI-identical payload (MarshalSummaries plus the trailing newline
// `needle -json`'s Println emits).
func (s *Server) analyzeBytes(ctx context.Context, parent *obs.Span, p *program.Program, cfg core.Config) ([]byte, error) {
	var body []byte
	err := s.runJob(ctx, func() error {
		a, err := s.analyze(ctx, parent, p, cfg)
		if err != nil {
			return err
		}
		body, err = core.MarshalSummaries([]*core.Analysis{a})
		return err
	}, false)
	if err != nil {
		return nil, err
	}
	obsAnalyzeOK.Add(1)
	return append(body, '\n'), nil
}

// handleSweep serves POST /v1/sweep: the full whole-program sweep over
// every registered workload, streamed as NDJSON — one compact summary
// object per workload in completion order, flushed as each analysis
// finishes. A failed workload contributes an {"workload", "error"} line
// instead; a sweep-level failure terminates the stream with an {"error"}
// line.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return statusErr(http.StatusMethodNotAllowed, "POST required")
	}
	var req sweepRequest
	if err := s.decodeBody(w, r, &req, true); err != nil {
		return err
	}
	cfg, err := s.resolveConfig(req.Config, req.N)
	if err != nil {
		return err
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	var (
		wmu   sync.Mutex
		wrote bool
	)
	flusher, _ := w.(http.Flusher)
	writeLine := func(v any) {
		line, err := json.Marshal(v)
		if err != nil {
			return
		}
		wmu.Lock()
		defer wmu.Unlock()
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Needle-Schema-Version", fmt.Sprint(core.SummarySchemaVersion))
			wrote = true
		}
		w.Write(append(line, '\n')) //nolint:errcheck // streaming response
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The sweep occupies a single pool slot and parallelizes internally
	// with the server's worker count, so the queue bounds concurrent
	// sweeps exactly like single analyses. Unlike analyze, the handler
	// waits for the job however ctx ends: the worker writes to the
	// ResponseWriter, which dies when this handler returns. Cancellation
	// still ends the job promptly — the sweep stops between stages and
	// workloads once ctx is done.
	err = s.runJob(ctx, func() error {
		obsSweeps.Add(1)
		return s.sweep(ctx, cfg, func(p core.Progress) {
			if p.Err != nil {
				writeLine(map[string]string{"workload": p.Workload.Name, "error": p.Err.Error()})
				return
			}
			writeLine(core.Summarize(p.Analysis))
		})
	}, true)
	// The job is over, so nothing else writes to w: a failure before the
	// first line is an error response, one after it the stream's last line.
	if err == nil || !wrote {
		return err
	}
	writeLine(map[string]string{"error": err.Error()})
	if isCancellation(err) {
		obsCancelled.Add(1)
	}
	return nil
}

// handleWorkloads serves GET /v1/workloads: the registered workload set.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return statusErr(http.StatusMethodNotAllowed, "GET required")
	}
	type workloadInfo struct {
		Name     string `json:"name"`
		Suite    string `json:"suite"`
		Notes    string `json:"notes"`
		FP       bool   `json:"fp"`
		DefaultN int    `json:"defaultN"`
	}
	ws := workloads.All()
	out := make([]workloadInfo, len(ws))
	for i, wl := range ws {
		out[i] = workloadInfo{Name: wl.Name, Suite: wl.Suite, Notes: wl.Notes, FP: wl.FP, DefaultN: wl.DefaultN}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // response write
	return nil
}

// handleHealthz serves GET /healthz: 200 while serving, 503 once draining
// so load balancers eject the instance ahead of shutdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n") //nolint:errcheck // response write
		return
	}
	io.WriteString(w, "ok\n") //nolint:errcheck // response write
}

// handleMetrics serves GET /metrics: the obs registry's text dump (every
// counter plus per-span-name aggregates) followed by the shared store's
// per-stage cache behaviour.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	obs.WriteMetrics(w) //nolint:errcheck // response write
	stats := s.store.Stats()
	for _, name := range pipeline.StageNames() {
		cs, ok := stats[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "cache %s hits=%d misses=%d disk_hits=%d evictions=%d mem_evictions=%d\n",
			name, cs.Hits, cs.Misses, cs.DiskHits, cs.Evictions, cs.MemEvictions)
	}
}
