// Behavioural tests for the serving layer: request validation, queue
// bounds, deadlines, drain, and singleflight — pinned deterministically by
// substituting the analyze/sweep seams so no real pipeline runs.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"needle/internal/core"
	"needle/internal/obs"
	"needle/internal/program"
	"needle/internal/workloads"
)

// doReq runs one request through the full handler stack.
func doReq(s *Server, method, path, body string) *httptest.ResponseRecorder {
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, r)
	return rr
}

func TestAnalyzeRejectsBadRequests(t *testing.T) {
	s := New(Config{Jobs: 1})
	defer s.Close()
	var runs int32
	s.analyze = func(context.Context, *obs.Span, *program.Program, core.Config) (*core.Analysis, error) {
		atomic.AddInt32(&runs, 1)
		return nil, errors.New("must not run")
	}
	cases := []struct {
		name   string
		method string
		body   string
		want   int
	}{
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"empty body", http.MethodPost, "", http.StatusBadRequest},
		{"malformed json", http.MethodPost, "{nope", http.StatusBadRequest},
		{"unknown field", http.MethodPost, `{"workload":"164.gzip","bogus":1}`, http.StatusBadRequest},
		{"missing workload", http.MethodPost, `{"n":100}`, http.StatusBadRequest},
		{"trailing data", http.MethodPost, `{"workload":"164.gzip"}{}`, http.StatusBadRequest},
		{"unknown workload", http.MethodPost, `{"workload":"999.nope"}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		rr := doReq(s, tc.method, "/v1/analyze", tc.body)
		if rr.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %q)", tc.name, rr.Code, tc.want, rr.Body.String())
		}
		var e map[string]string
		if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Errorf("%s: rejection body is not an error object: %q", tc.name, rr.Body.String())
		}
	}
	if n := atomic.LoadInt32(&runs); n != 0 {
		t.Errorf("rejected requests ran %d analyses", n)
	}
}

func TestSweepRejectsBadRequests(t *testing.T) {
	s := New(Config{Jobs: 1})
	defer s.Close()
	s.sweep = func(context.Context, core.Config, core.ProgressFunc) error {
		return errors.New("must not run")
	}
	if rr := doReq(s, http.MethodGet, "/v1/sweep", ""); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET sweep: status %d, want 405", rr.Code)
	}
	// The sweep payload has no workload field; a strict decoder rejects it.
	if rr := doReq(s, http.MethodPost, "/v1/sweep", `{"workload":"164.gzip"}`); rr.Code != http.StatusBadRequest {
		t.Errorf("sweep with workload field: status %d, want 400", rr.Code)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	s := New(Config{Jobs: 1})
	defer s.Close()
	if rr := doReq(s, http.MethodPost, "/v1/workloads", "{}"); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST workloads: status %d, want 405", rr.Code)
	}
	rr := doReq(s, http.MethodGet, "/v1/workloads", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("GET workloads: status %d", rr.Code)
	}
	var got []struct {
		Name     string `json:"name"`
		Suite    string `json:"suite"`
		DefaultN int    `json:"defaultN"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("decoding workload list: %v", err)
	}
	ws := workloads.All()
	if len(got) != len(ws) {
		t.Fatalf("listed %d workloads, want %d", len(got), len(ws))
	}
	for i, w := range ws {
		if got[i].Name != w.Name || got[i].Suite != w.Suite || got[i].DefaultN != w.DefaultN {
			t.Errorf("entry %d = %+v, want %s/%s/%d", i, got[i], w.Name, w.Suite, w.DefaultN)
		}
	}
}

// TestPanickingAnalysisIsContained: an analysis that panics fails its own
// request with 500, ticks serve.panics and logs its stack; the worker
// survives, and the same request then succeeds.
func TestPanickingAnalysisIsContained(t *testing.T) {
	obs.Enable()
	var logged strings.Builder
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	s := New(Config{Jobs: 1})
	defer s.Close()
	real := s.analyze
	var calls atomic.Int32
	s.analyze = func(ctx context.Context, sp *obs.Span, p *program.Program, cfg core.Config) (*core.Analysis, error) {
		if calls.Add(1) == 1 {
			panic("stage exploded")
		}
		return real(ctx, sp, p, cfg)
	}
	before := obsPanics.Value()
	const req = `{"workload":"164.gzip","n":200}`
	if rr := doReq(s, http.MethodPost, "/v1/analyze", req); rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking analysis: status %d, want 500 (body %q)", rr.Code, rr.Body.String())
	}
	if n := obsPanics.Value() - before; n != 1 {
		t.Errorf("serve.panics rose by %d, want 1", n)
	}
	if !strings.Contains(logged.String(), "stage exploded") || !strings.Contains(logged.String(), "goroutine") {
		t.Errorf("log has no panic and stack: %q", logged.String())
	}
	rr := doReq(s, http.MethodPost, "/v1/analyze", req)
	if rr.Code != http.StatusOK {
		t.Fatalf("after the panic: status %d, want 200 (body %q)", rr.Code, rr.Body.String())
	}
	var sums []core.Summary
	if err := json.Unmarshal(rr.Body.Bytes(), &sums); err != nil || len(sums) != 1 || sums[0].Workload != "164.gzip" {
		t.Fatalf("after the panic: body %q does not hold the analysis (%v)", rr.Body.String(), err)
	}

	// A sweep that panics before it streams anything fails the same way,
	// and the next sweep is served.
	var sweeps atomic.Int32
	s.sweep = func(_ context.Context, _ core.Config, progress core.ProgressFunc) error {
		if sweeps.Add(1) == 1 {
			panic("sweep exploded")
		}
		progress(core.Progress{Workload: workloads.All()[0], Err: errors.New("stub workload failed")})
		return nil
	}
	before = obsPanics.Value()
	rr = doReq(s, http.MethodPost, "/v1/sweep", `{}`)
	var e map[string]string
	if rr.Code != http.StatusInternalServerError || json.Unmarshal(rr.Body.Bytes(), &e) != nil || e["error"] == "" {
		t.Fatalf("panicking sweep: status %d body %q, want 500 with an error object", rr.Code, rr.Body.String())
	}
	if n := obsPanics.Value() - before; n != 1 {
		t.Errorf("serve.panics rose by %d after the sweep panic, want 1", n)
	}
	rr = doReq(s, http.MethodPost, "/v1/sweep", `{}`)
	if want := fmt.Sprintf(`{"error":"stub workload failed","workload":%q}`+"\n", workloads.All()[0].Name); rr.Code != http.StatusOK || rr.Body.String() != want {
		t.Fatalf("after the sweep panic: status %d body %q, want 200 %q", rr.Code, rr.Body.String(), want)
	}
}

// TestQueueOverflowRejectsWith429: with one worker and queue depth one, a
// third concurrent request finds no slot and is rejected immediately.
func TestQueueOverflowRejectsWith429(t *testing.T) {
	s := New(Config{Jobs: 1, QueueDepth: 1})
	defer s.Close()
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.analyze = func(ctx context.Context, _ *obs.Span, _ *program.Program, _ core.Config) (*core.Analysis, error) {
		started <- struct{}{}
		<-release
		return nil, errors.New("stub finished")
	}
	// Distinct n values keep the three requests on distinct fingerprints so
	// the singleflight cannot collapse them into one queue slot.
	codes := make(chan int, 2)
	post := func(n int) {
		rr := doReq(s, http.MethodPost, "/v1/analyze", fmt.Sprintf(`{"workload":"164.gzip","n":%d}`, n))
		codes <- rr.Code
	}
	go post(101) // occupies the worker
	<-started
	go post(102) // occupies the queue slot
	waitUntil(t, func() bool { return len(s.queue) == 1 })

	rr := doReq(s, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","n":103}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429 (body %q)", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	close(release)
	for i := 0; i < 2; i++ {
		if c := <-codes; c != http.StatusInternalServerError {
			t.Errorf("accepted request %d: status %d, want 500 from the stub error", i, c)
		}
	}
}

// TestDeadlineCancelsWith499: a request whose deadline expires mid-run gets
// the 499 client-closed-request status.
func TestDeadlineCancelsWith499(t *testing.T) {
	s := New(Config{Jobs: 1})
	defer s.Close()
	s.analyze = func(ctx context.Context, _ *obs.Span, _ *program.Program, _ core.Config) (*core.Analysis, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	rr := doReq(s, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","timeoutMs":20}`)
	if rr.Code != statusClientClosedRequest {
		t.Fatalf("expired request: status %d, want %d (body %q)", rr.Code, statusClientClosedRequest, rr.Body.String())
	}
}

// TestServerTimeoutCapsRequestDeadline: the server-wide cap applies even
// when the request asks for no (or a longer) deadline.
func TestServerTimeoutCapsRequestDeadline(t *testing.T) {
	s := New(Config{Jobs: 1, Timeout: 20 * time.Millisecond})
	defer s.Close()
	s.analyze = func(ctx context.Context, _ *obs.Span, _ *program.Program, _ core.Config) (*core.Analysis, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	rr := doReq(s, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","timeoutMs":60000}`)
	if rr.Code != statusClientClosedRequest {
		t.Fatalf("capped request: status %d, want %d", rr.Code, statusClientClosedRequest)
	}
}

// TestGracefulDrain: Drain flips health to 503 and rejects new work while
// the in-flight request still runs to completion, and Close then settles
// the pool without hanging.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Jobs: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	s.analyze = func(ctx context.Context, _ *obs.Span, _ *program.Program, _ core.Config) (*core.Analysis, error) {
		close(started)
		<-release
		return nil, errors.New("inflight finished")
	}
	if rr := doReq(s, http.MethodGet, "/healthz", ""); rr.Code != http.StatusOK {
		t.Fatalf("healthz before drain: status %d", rr.Code)
	}
	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		inflight <- doReq(s, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip"}`)
	}()
	<-started
	s.Drain()
	if rr := doReq(s, http.MethodGet, "/healthz", ""); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", rr.Code)
	}
	// The rejected request must use a fingerprint distinct from the
	// in-flight one: an identical request would join its singleflight
	// flight (no new work, so drain does not apply) and wait instead of
	// being rejected.
	if rr := doReq(s, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","n":999}`); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("POST /v1/analyze while draining: status %d, want 503 (body %q)", rr.Code, rr.Body.String())
	}
	if rr := doReq(s, http.MethodPost, "/v1/sweep", `{}`); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("POST /v1/sweep while draining: status %d, want 503 (body %q)", rr.Code, rr.Body.String())
	}
	close(release)
	rr := <-inflight
	if rr.Code != http.StatusInternalServerError || !strings.Contains(rr.Body.String(), "inflight finished") {
		t.Errorf("in-flight request: status %d body %q, want the stub to have completed", rr.Code, rr.Body.String())
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not settle after drain")
	}
}

// TestSingleflightCollapsesStub: three identical concurrent requests share
// one seam invocation; the leader is held open until both followers have
// joined, so the collapse is deterministic.
func TestSingleflightCollapsesStub(t *testing.T) {
	s := New(Config{Jobs: 2})
	defer s.Close()
	var runs int32
	s.analyze = func(ctx context.Context, _ *obs.Span, _ *program.Program, _ core.Config) (*core.Analysis, error) {
		atomic.AddInt32(&runs, 1)
		waitUntil(t, func() bool { return s.Collapsed() >= 2 })
		return nil, errors.New("shared result")
	}
	var wg sync.WaitGroup
	results := make(chan *httptest.ResponseRecorder, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- doReq(s, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","n":555}`)
		}()
	}
	wg.Wait()
	close(results)
	for rr := range results {
		if rr.Code != http.StatusInternalServerError || !strings.Contains(rr.Body.String(), "shared result") {
			t.Errorf("collapsed request: status %d body %q", rr.Code, rr.Body.String())
		}
	}
	if n := atomic.LoadInt32(&runs); n != 1 {
		t.Errorf("analyze seam ran %d times, want 1", n)
	}
	if c := s.Collapsed(); c != 2 {
		t.Errorf("Collapsed() = %d, want 2", c)
	}
}

func TestMetricsAndHealthEndpoints(t *testing.T) {
	s := New(Config{Jobs: 1})
	defer s.Close()
	rr := doReq(s, http.MethodGet, "/metrics", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	if rr := doReq(s, http.MethodGet, "/healthz", ""); rr.Code != http.StatusOK || rr.Body.String() != "ok\n" {
		t.Errorf("healthz: status %d body %q", rr.Code, rr.Body.String())
	}
	if rr := doReq(s, http.MethodGet, "/nope", ""); rr.Code != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", rr.Code)
	}
}

// waitUntil polls cond with a generous deadline; the tests that use it only
// need eventual consistency, not timing precision.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Error("condition not reached within deadline")
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRejectsUnrunnableHardwareConfigs sends /v1/analyze and /v1/sweep, on
// the real pipeline, each hardware config that used to hang, panic or
// exhaust memory: no CGRA memory ports (the scheduler searched for a free
// port forever), no fabric columns (placement divided by zero), a 256x256
// fabric (a multi-gigabyte placement table), an empty host reorder buffer,
// an oversized L1 and an oversized undo log. Each must answer 400 with an
// error object well within its 2 s deadline.
func TestRejectsUnrunnableHardwareConfigs(t *testing.T) {
	s := New(Config{Jobs: 1})
	defer s.Close()
	cases := map[string]func(*core.Config){
		"no memory ports": func(c *core.Config) { c.Sim.CGRA.MemPorts = 0 },
		"no columns":      func(c *core.Config) { c.Sim.CGRA.Cols = 0 },
		"256x256 fabric":  func(c *core.Config) { c.Sim.CGRA.Rows, c.Sim.CGRA.Cols = 256, 256 },
		"empty rob":       func(c *core.Config) { c.Sim.OOO.ROB = 0 },
		"huge l1":         func(c *core.Config) { c.Sim.Mem.L1Words = 1 << 40 },
		"huge undo log":   func(c *core.Config) { c.Sim.Frame.UndoOpsPerStore = 1 << 40 },
	}
	const deadline = 2 * time.Second
	for name, mutate := range cases {
		cfg := core.DefaultConfig()
		mutate(&cfg)
		for path, req := range map[string]any{
			"/v1/analyze": map[string]any{"workload": "164.gzip", "config": cfg, "timeoutMs": deadline.Milliseconds()},
			"/v1/sweep":   map[string]any{"config": cfg, "timeoutMs": deadline.Milliseconds()},
		} {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			rr := doReq(s, http.MethodPost, path, string(body))
			if took := time.Since(start); took > deadline {
				t.Errorf("%s %s: took %v, past its %v deadline", name, path, took, deadline)
			}
			if rr.Code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 (body %q)", name, path, rr.Code, rr.Body.String())
			}
			var e map[string]string
			if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || !strings.Contains(e["error"], "invalid hardware config") {
				t.Errorf("%s %s: body %q is not a config error", name, path, rr.Body.String())
			}
		}
	}
}
