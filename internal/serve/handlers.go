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
	"needle/internal/ir"
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
	s.mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/v1/vet", s.handleVet)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
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

// decodeBody strictly decodes a JSON request body into dst, bounded by the
// server's body cap. An empty body is accepted when allowEmpty is set (dst
// is left zero). An over-cap body surfaces as *http.MaxBytesError in the
// chain, which requestStatus maps to 413.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any, allowEmpty bool) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return fmt.Errorf("reading request body: %w", err)
	}
	if len(body) == 0 {
		if allowEmpty {
			return nil
		}
		return errors.New("empty request body")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if dec.More() {
		return errors.New("trailing data after request object")
	}
	return nil
}

// resolveConfig builds the effective pipeline config from a request, the
// same way cmd/needle does (explicit config, then the n override). A
// hardware config the models cannot run fails sim.Config.Check here, before
// any work is queued (400).
func resolveConfig(cfg *core.Config, n int) (core.Config, error) {
	out := core.DefaultConfig()
	if cfg != nil {
		out = *cfg
	}
	if n != 0 {
		out.N = n
	}
	return out, out.Sim.Check()
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

// requestStatus maps an ingestion error to its HTTP status: over-cap
// payloads and over-limit programs are 413, structurally invalid programs
// are 422, everything else is a plain 400.
func requestStatus(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig), errors.Is(err, program.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, program.ErrInvalid):
		return http.StatusUnprocessableEntity
	}
	var verr *ir.VerifyError
	if errors.As(err, &verr) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
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

// errorStatus maps the error a request failed with to its HTTP status.
func errorStatus(err error) int {
	switch {
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
	writeJSONError(w, status, err.Error())
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck // response write
}

// handleAnalyze serves POST /v1/analyze: one program — a built-in workload
// or inline .nir source — one config, the exact bytes `needle -json` would
// print for the same input. With ?trace=1 the response is instead a
// request-scoped Chrome trace of the run.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req analyzeRequest
	if err := s.decodeBody(w, r, &req, false); err != nil {
		writeJSONError(w, requestStatus(err), err.Error())
		return
	}
	p, cfg, errStatus, err := s.resolveProgram(&req)
	if err != nil {
		writeJSONError(w, errStatus, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	if wantTrace(r) {
		s.handleAnalyzeTrace(w, ctx, p, cfg)
		return
	}

	// Identical concurrent requests collapse onto one pipeline run: the key
	// is the pipeline's own cumulative fingerprint (program content digest
	// included), so two requests share a flight exactly when their runs
	// would be byte-identical — same-named but different-bodied inline
	// programs never collapse onto each other.
	key := pipeline.Fingerprint(p, cfg)
	body, err, _ := s.flights.do(ctx, key,
		func() { s.collapsed.Add(1); obsCollapsed.Add(1) },
		func() ([]byte, error) { return s.analyzeBytes(ctx, nil, p, cfg) })
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Needle-Schema-Version", fmt.Sprint(core.SummarySchemaVersion))
	w.Write(body) //nolint:errcheck // response write
}

// handleVet serves POST /v1/vet: the static-analysis diagnostic suite over
// one program — a built-in workload or inline .nir source, selected exactly
// like /v1/analyze and under the same ingestion limits — without executing
// it. The response is the vet report, byte-identical to
// `needle -vet -json` for the same program (plus the trailing newline
// Println emits). Diagnostics, including error severity, are the payload:
// the HTTP status is 200 whenever the program ingests.
func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req analyzeRequest
	if err := s.decodeBody(w, r, &req, false); err != nil {
		writeJSONError(w, requestStatus(err), err.Error())
		return
	}
	p, _, errStatus, err := s.resolveProgram(&req)
	if err != nil {
		writeJSONError(w, errStatus, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	body, err := s.vetBytes(ctx, p)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Needle-Vet-Schema-Version", fmt.Sprint(vet.ReportSchemaVersion))
	w.Write(body) //nolint:errcheck // response write
}

// vetBytes queues one vet run and marshals its report into the
// CLI-identical payload. Vet is pure static analysis — cheap relative to a
// pipeline run — but it still parses and walks untrusted programs, so it
// occupies a pool slot like every other unit of work.
func (s *Server) vetBytes(ctx context.Context, p *program.Program) ([]byte, error) {
	var (
		body []byte
		rerr error
		ran  bool
	)
	j := &job{ctx: ctx, done: make(chan struct{})}
	j.run = func() {
		ran = true
		rep := vet.Check(nil, p)
		out, err := vet.MarshalReport(rep)
		if err != nil {
			rerr = err
			return
		}
		body = append(out, '\n')
	}
	if err := s.submit(j); err != nil {
		return nil, err
	}
	select {
	case <-j.done:
		if !ran {
			return nil, ctx.Err()
		}
		if j.err != nil {
			return nil, j.err
		}
		if rerr == nil {
			obsVetOK.Add(1)
		}
		return body, rerr
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// resolveProgram turns an analyze request into the program to run and the
// effective config, applying the server's limits. On failure it returns
// the HTTP status the error maps to.
func (s *Server) resolveProgram(req *analyzeRequest) (*program.Program, core.Config, int, error) {
	cfg, err := resolveConfig(req.Config, req.N)
	switch {
	case err != nil:
		return nil, cfg, http.StatusBadRequest, err
	case req.Workload != "" && req.Source != "":
		return nil, cfg, http.StatusBadRequest, errors.New("workload and source are mutually exclusive")
	case req.Workload == "" && req.Source == "":
		return nil, cfg, http.StatusBadRequest, errors.New("missing workload name or source")
	case req.Workload != "" && (req.Entry != "" || req.MemWords != 0 || len(req.Args) != 0):
		return nil, cfg, http.StatusBadRequest, errors.New("entry/memWords/args apply only to source requests")
	}
	// No request runs unbounded: the effective config is materialized so
	// the run caps can be enforced — an explicit bound over a cap is
	// rejected, an absent (unlimited) one is clamped. A cap changes only
	// how a runaway program fails, never the summary bytes of one that
	// finishes under it, so CLI/serve byte-identity holds for every such
	// program.
	cfg = cfg.WithDefaults()
	if err := clampRun(&cfg, s.cfg.Limits); err != nil {
		return nil, cfg, http.StatusUnprocessableEntity, err
	}
	if req.Workload != "" {
		wl := workloads.ByName(req.Workload)
		if wl == nil {
			return nil, cfg, http.StatusNotFound, fmt.Errorf("unknown workload %q (see /v1/workloads)", req.Workload)
		}
		n := cfg.N
		if n <= 0 {
			n = wl.DefaultN
		}
		if max := s.cfg.Limits.MaxMemWords; max > 0 && wl.MemWords(n) > max {
			err := fmt.Errorf("%w: %s at n=%d needs a memory image of %d words, cap is %d",
				program.ErrTooLarge, wl.Name, n, wl.MemWords(n), max)
			return nil, cfg, http.StatusRequestEntityTooLarge, err
		}
		p, err := wl.Program(cfg.N)
		if err != nil {
			return nil, cfg, http.StatusInternalServerError, err
		}
		return p, cfg, 0, nil
	}
	p, err := program.Load(req.Source, program.LoadOptions{
		Entry:    req.Entry,
		MemWords: req.MemWords,
		Args:     req.Args,
		Limits:   s.cfg.Limits,
	})
	if err != nil {
		return nil, cfg, requestStatus(err), err
	}
	return p, cfg, 0, nil
}

// clampRun applies lim's run caps to cfg: a bound over its cap is an
// error, and an unset one (zero or negative: unbounded) takes the cap.
func clampRun(cfg *core.Config, lim program.Limits) error {
	for _, b := range []struct {
		name string
		val  *int64
		max  int64
	}{
		{"maxSteps", &cfg.Sim.MaxSteps, lim.MaxSteps},
		{"maxOccurrences", &cfg.Sim.MaxOccurrences, lim.MaxOccurrences},
	} {
		switch {
		case b.max <= 0:
		case *b.val > b.max:
			return fmt.Errorf("config.sim %s %d exceeds the server cap %d", b.name, *b.val, b.max)
		case *b.val <= 0:
			*b.val = b.max
		}
	}
	return nil
}

// handleAnalyzeTrace runs the analysis under a private observability
// registry and responds with its Chrome trace-event timeline. Trace
// requests bypass the singleflight (a collapsed request would download
// another tenant's spans) but still occupy a pool slot.
func (s *Server) handleAnalyzeTrace(w http.ResponseWriter, ctx context.Context, p *program.Program, cfg core.Config) {
	reg := &obs.Registry{}
	reg.Enable()
	root := reg.StartOnTrack("request: analyze "+p.Name, 0)
	_, err := s.analyzeBytes(ctx, root, p, cfg)
	root.End()
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "needle-trace-"+p.Name+".json"))
	reg.WriteChromeTrace(w) //nolint:errcheck // response write
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
	var (
		body []byte
		rerr error
		ran  bool
	)
	j := &job{ctx: ctx, done: make(chan struct{})}
	j.run = func() {
		ran = true
		a, err := s.analyze(ctx, parent, p, cfg)
		if err != nil {
			rerr = err
			return
		}
		out, err := core.MarshalSummaries([]*core.Analysis{a})
		if err != nil {
			rerr = err
			return
		}
		body = append(out, '\n')
	}
	if err := s.submit(j); err != nil {
		return nil, err
	}
	select {
	case <-j.done:
		if !ran {
			// The worker skipped the job because the context had already
			// ended while it sat in the queue.
			return nil, ctx.Err()
		}
		if j.err != nil {
			return nil, j.err
		}
		if rerr == nil {
			obsAnalyzeOK.Add(1)
		}
		return body, rerr
	case <-ctx.Done():
		// The job keeps its queue slot; the worker will skip it (or the
		// pipeline will stop between stages) now that the context is done.
		return nil, ctx.Err()
	}
}

// handleSweep serves POST /v1/sweep: the full whole-program sweep over
// every registered workload, streamed as NDJSON — one compact summary
// object per workload in completion order, flushed as each analysis
// finishes. A failed workload contributes an {"workload", "error"} line
// instead; a sweep-level failure terminates the stream with an {"error"}
// line.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req sweepRequest
	if err := s.decodeBody(w, r, &req, true); err != nil {
		writeJSONError(w, requestStatus(err), err.Error())
		return
	}
	cfg, err := resolveConfig(req.Config, req.N)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfg = cfg.WithDefaults()
	if err := clampRun(&cfg, s.cfg.Limits); err != nil {
		writeJSONError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	// The sweep occupies a single pool slot and parallelizes internally
	// with the server's worker count, so the queue bounds concurrent
	// sweeps exactly like single analyses.
	var (
		wmu   sync.Mutex
		wrote bool
		werr  error
		ran   bool
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
	j := &job{ctx: ctx, done: make(chan struct{})}
	j.run = func() {
		ran = true
		obsSweeps.Add(1)
		werr = s.sweep(ctx, cfg, func(p core.Progress) {
			if p.Err != nil {
				writeLine(map[string]string{"workload": p.Workload.Name, "error": p.Err.Error()})
				return
			}
			writeLine(core.Summarize(p.Analysis))
		})
	}
	if err := s.submit(j); err != nil {
		s.writeError(w, err)
		return
	}
	// Unlike analyze, the handler must outlive the job unconditionally:
	// the worker goroutine writes to the ResponseWriter, which dies when
	// this handler returns. Cancellation still ends the job promptly — the
	// sweep stops between stages and workloads once ctx is done.
	<-j.done
	if !ran {
		s.writeError(w, ctx.Err())
		return
	}
	if j.err != nil {
		werr = j.err
	}
	if werr != nil {
		wmu.Lock()
		headersSent := wrote
		wmu.Unlock()
		if !headersSent {
			s.writeError(w, werr)
			return
		}
		writeLine(map[string]string{"error": werr.Error()})
		if isCancellation(werr) {
			obsCancelled.Add(1)
		}
	}
}

// handleWorkloads serves GET /v1/workloads: the registered workload set.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET required")
		return
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
