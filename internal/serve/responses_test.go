// The response table: every way a request can fail, with the exact status,
// JSON error body and Retry-After header it answers with.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"needle/internal/core"
	"needle/internal/ir"
	"needle/internal/obs"
	"needle/internal/program"
)

// response is one pinned answer: status, body and Retry-After.
type response struct {
	status     int
	body       string
	retryAfter string
}

func errorBody(msg string) string {
	b, err := json.Marshal(map[string]string{"error": msg})
	if err != nil {
		panic(err)
	}
	return string(b) + "\n"
}

func checkResponse(t *testing.T, name string, rr *httptest.ResponseRecorder, want response) {
	t.Helper()
	if rr.Code != want.status || rr.Body.String() != want.body || rr.Header().Get("Retry-After") != want.retryAfter {
		t.Errorf("%s: got %d %q Retry-After %q, want %d %q Retry-After %q", name,
			rr.Code, rr.Body.String(), rr.Header().Get("Retry-After"), want.status, want.body, want.retryAfter)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", name, ct)
	}
}

// TestResponseTable pins the answer to every rejected request the serve
// tests send: malformed requests (400), unknown workloads (404), over-cap
// bodies, sources and memory images (413), unprocessable programs and
// run bounds (422), unrunnable hardware configs (400 on every endpoint),
// and the pipeline's own rejections (422). A rejected request runs no
// analysis or sweep: only the pipeline's rejection runs one, the analysis
// that fails.
func TestResponseTable(t *testing.T) {
	lim := program.DefaultLimits()
	lim.MaxSourceBytes = 4 << 10
	lim.MaxInstrs = 64
	lim.MaxMemWords = 8192 // 181.mcf's image is 12288 words
	s := New(Config{Jobs: 1, MaxBodyBytes: 16 << 10, Limits: lim})
	defer s.Close()
	var runs atomic.Int32
	analyze, sweep := s.analyze, s.sweep
	s.analyze = func(ctx context.Context, sp *obs.Span, p *program.Program, cfg core.Config) (*core.Analysis, error) {
		runs.Add(1)
		return analyze(ctx, sp, p, cfg)
	}
	s.sweep = func(ctx context.Context, cfg core.Config, progress core.ProgressFunc) error {
		runs.Add(1)
		return sweep(ctx, cfg, progress)
	}

	oob, err := os.ReadFile(filepath.Join("..", "..", "examples", "nir", "oob.nir"))
	if err != nil {
		t.Fatal(err)
	}
	var instrBomb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&instrBomb, "func @f%d() {\nentry:\n  r1 = const.i64 %d\n  ret r1\n}\n", i, i)
	}
	src := func(req analyzeRequest) string { return sourceReq(t, req) }
	withConfig := func(mutate func(*core.Config)) string {
		cfg := core.DefaultConfig()
		mutate(&cfg)
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	noPorts := withConfig(func(c *core.Config) { c.Sim.CGRA.MemPorts = 0 })
	overSteps := withConfig(func(c *core.Config) { c.Sim.MaxSteps = lim.MaxSteps + 1 })
	overOccurrences := withConfig(func(c *core.Config) { c.Sim.MaxOccurrences = lim.MaxOccurrences + 1 })

	badRequest := func(msg string) response { return response{http.StatusBadRequest, errorBody(msg), ""} }
	tooLarge := func(msg string) response { return response{http.StatusRequestEntityTooLarge, errorBody(msg), ""} }
	unprocessable := func(msg string) response { return response{http.StatusUnprocessableEntity, errorBody(msg), ""} }
	const badPorts = "invalid hardware config: CGRA.MemPorts 0: must be in [1, 1024]"

	cases := []struct {
		name, method, path, body string
		want                     response
	}{
		{"analyze wrong method", http.MethodGet, "/v1/analyze", "", response{http.StatusMethodNotAllowed, errorBody("POST required"), ""}},
		{"analyze empty body", http.MethodPost, "/v1/analyze", "", badRequest("empty request body")},
		{"analyze trailing body", http.MethodPost, "/v1/analyze", `{"workload":"164.gzip"}{}`, badRequest("trailing data after request object")},
		{"analyze malformed json", http.MethodPost, "/v1/analyze", "{nope", badRequest("decoding request: invalid character 'n' looking for beginning of object key string")},
		{"analyze unknown field", http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","bogus":1}`, badRequest(`decoding request: json: unknown field "bogus"`)},
		{"analyze workload and source", http.MethodPost, "/v1/analyze", src(analyzeRequest{Workload: "164.gzip", Source: ingestSrc}), badRequest("workload and source are mutually exclusive")},
		{"analyze neither", http.MethodPost, "/v1/analyze", `{"n":100}`, badRequest("missing workload name or source")},
		{"analyze args on workload", http.MethodPost, "/v1/analyze", src(analyzeRequest{Workload: "164.gzip", Args: []string{"1"}}), badRequest("entry/memWords/args apply only to source requests")},
		{"analyze entry on workload", http.MethodPost, "/v1/analyze", src(analyzeRequest{Workload: "164.gzip", Entry: "f"}), badRequest("entry/memWords/args apply only to source requests")},
		{"analyze unknown workload", http.MethodPost, "/v1/analyze", `{"workload":"999.nope"}`, response{http.StatusNotFound, errorBody(`unknown workload "999.nope" (see /v1/workloads)`), ""}},
		{"analyze over-cap body", http.MethodPost, "/v1/analyze", src(analyzeRequest{Source: ingestSrc + strings.Repeat(";x\n", 8<<10)}), tooLarge("reading request body: http: request body too large")},
		// The whole capped body is read before any of it is decoded: a
		// valid object whose trailing whitespace runs past the cap is a
		// 413, and a body of whitespace alone is an empty one.
		{"analyze over-cap trailing whitespace", http.MethodPost, "/v1/analyze", `{"workload":"164.gzip"}` + strings.Repeat(" ", 16<<10), tooLarge("reading request body: http: request body too large")},
		{"analyze whitespace body", http.MethodPost, "/v1/analyze", " \n\t ", badRequest("empty request body")},
		{"analyze over-cap source", http.MethodPost, "/v1/analyze", src(analyzeRequest{Source: "; pad\n" + strings.Repeat("; padding line\n", 300) + ingestSrc}), tooLarge(`program exceeds limits: source is 4724 bytes, cap is 4096`)},
		{"analyze over-cap instrs", http.MethodPost, "/v1/analyze", src(analyzeRequest{Source: instrBomb.String()}), tooLarge(`program exceeds limits: module has 80 instructions, cap is 64`)},
		{"analyze over-cap source memory", http.MethodPost, "/v1/analyze", src(analyzeRequest{Source: ingestSrc, MemWords: 1 << 20}), tooLarge(`program exceeds limits: memory image of 1048576 words, cap is 8192`)},
		{"analyze over-cap workload memory", http.MethodPost, "/v1/analyze", `{"workload":"181.mcf"}`, tooLarge(`program exceeds limits: 181.mcf at n=16000 needs a memory image of 12288 words, cap is 8192`)},
		{"analyze parse error", http.MethodPost, "/v1/analyze", src(analyzeRequest{Source: "this is not nir"}), unprocessable(`invalid program: ir: line 1: expected 'func @name(...)', got "this is not nir"`)},
		{"analyze verify error", http.MethodPost, "/v1/analyze", src(analyzeRequest{Source: "func @f(i64) {\nentry:\n  condbr r1, %a, %b\na:\n  ret r1\nb:\n  ret\n}\n"}), unprocessable(`invalid program: ir: f: inconsistent return types across blocks`)},
		{"analyze unknown entry", http.MethodPost, "/v1/analyze", src(analyzeRequest{Source: ingestSrc, Entry: "missing"}), unprocessable(`invalid program: no function @missing in module`)},
		{"analyze excess arguments", http.MethodPost, "/v1/analyze", src(analyzeRequest{Source: ingestSrc, Args: []string{"1", "2"}}), unprocessable(`invalid program: entry @count wants 1 arguments, have 2`)},
		{"analyze bad argument", http.MethodPost, "/v1/analyze", src(analyzeRequest{Source: ingestSrc, Args: []string{"zebra"}}), unprocessable(`invalid program: bad int argument "zebra": strconv.ParseInt: parsing "zebra": invalid syntax`)},
		{"analyze over-cap maxSteps", http.MethodPost, "/v1/analyze", `{"source":` + jsonString(ingestSrc) + `,"config":` + overSteps + `}`, unprocessable(`config.sim maxSteps 100000001 exceeds the server cap 100000000`)},
		{"analyze over-cap maxOccurrences", http.MethodPost, "/v1/analyze", `{"source":` + jsonString(ingestSrc) + `,"config":` + overOccurrences + `}`, unprocessable(`config.sim maxOccurrences 1048577 exceeds the server cap 1048576`)},
		{"analyze bad hardware config", http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","config":` + noPorts + `}`, badRequest(badPorts)},
		{pipelineRejection, http.MethodPost, "/v1/analyze", src(analyzeRequest{Source: string(oob)}), unprocessable(`pipeline: capturing oob: interp: memory access out of bounds: load of word 5000 (mem size 4096) in oob.entry`)},

		{"vet wrong method", http.MethodGet, "/v1/vet", "", response{http.StatusMethodNotAllowed, errorBody("POST required"), ""}},
		{"vet empty body", http.MethodPost, "/v1/vet", "", badRequest("empty request body")},
		{"vet neither", http.MethodPost, "/v1/vet", `{}`, badRequest("missing workload name or source")},
		{"vet workload and source", http.MethodPost, "/v1/vet", `{"workload":"164.gzip","source":"x"}`, badRequest("workload and source are mutually exclusive")},
		{"vet unknown workload", http.MethodPost, "/v1/vet", `{"workload":"nope"}`, response{http.StatusNotFound, errorBody(`unknown workload "nope" (see /v1/workloads)`), ""}},
		{"vet parse error", http.MethodPost, "/v1/vet", `{"source":"func @f( {"}`, unprocessable(`invalid program: ir: line 1: malformed function header "func @f( {"`)},
		{"vet over-cap source memory", http.MethodPost, "/v1/vet", src(analyzeRequest{Source: ingestSrc, MemWords: 1 << 20}), tooLarge(`program exceeds limits: memory image of 1048576 words, cap is 8192`)},
		{"vet over-cap maxSteps", http.MethodPost, "/v1/vet", `{"source":` + jsonString(ingestSrc) + `,"config":` + overSteps + `}`, unprocessable(`config.sim maxSteps 100000001 exceeds the server cap 100000000`)},
		{"vet bad hardware config", http.MethodPost, "/v1/vet", `{"workload":"164.gzip","config":` + noPorts + `}`, badRequest(badPorts)},

		{"sweep wrong method", http.MethodGet, "/v1/sweep", "", response{http.StatusMethodNotAllowed, errorBody("POST required"), ""}},
		{"sweep unknown field", http.MethodPost, "/v1/sweep", `{"workload":"164.gzip"}`, badRequest(`decoding request: json: unknown field "workload"`)},
		{"sweep trailing body", http.MethodPost, "/v1/sweep", `{}{}`, badRequest("trailing data after request object")},
		{"sweep over-cap maxSteps", http.MethodPost, "/v1/sweep", `{"config":` + overSteps + `}`, unprocessable(`config.sim maxSteps 100000001 exceeds the server cap 100000000`)},
		{"sweep bad hardware config", http.MethodPost, "/v1/sweep", `{"config":` + noPorts + `}`, badRequest(badPorts)},

		{"workloads wrong method", http.MethodPost, "/v1/workloads", "{}", response{http.StatusMethodNotAllowed, errorBody("GET required"), ""}},
	}
	for _, tc := range cases {
		before := runs.Load()
		checkResponse(t, tc.name, doReq(s, tc.method, tc.path, tc.body), tc.want)
		want := int32(0)
		if tc.name == pipelineRejection {
			want = 1
		}
		if got := runs.Load() - before; got != want {
			t.Errorf("%s: ran %d analyses or sweeps, want %d", tc.name, got, want)
		}
	}
}

// pipelineRejection names the one row of TestResponseTable whose program
// ingests and then fails in the pipeline.
const pipelineRejection = "analyze pipeline rejection"

func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestResponseTableServing pins the answers the serving machinery gives:
// a full queue (429, Retry-After 1), a draining server (503, Retry-After
// 5) and an expired deadline (499), on each endpoint that queues work.
func TestResponseTableServing(t *testing.T) {
	block := func(s *Server) (release func()) {
		started := make(chan struct{}, 4)
		ch := make(chan struct{})
		s.analyze = func(ctx context.Context, _ *obs.Span, _ *program.Program, _ core.Config) (*core.Analysis, error) {
			started <- struct{}{}
			<-ch
			return nil, errors.New("released")
		}
		go doReq(s, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","n":101}`)
		<-started
		go doReq(s, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","n":102}`)
		waitUntil(t, func() bool { return len(s.queue) == 1 })
		return func() { close(ch) }
	}

	full := New(Config{Jobs: 1, QueueDepth: 1})
	release := block(full)
	queueFull := response{http.StatusTooManyRequests, errorBody("serve: analysis queue full"), "1"}
	checkResponse(t, "analyze queue full", doReq(full, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","n":103}`), queueFull)
	checkResponse(t, "vet queue full", doReq(full, http.MethodPost, "/v1/vet", `{"workload":"164.gzip","n":103}`), queueFull)
	checkResponse(t, "sweep queue full", doReq(full, http.MethodPost, "/v1/sweep", `{"n":103}`), queueFull)
	release()
	full.Close()

	draining := New(Config{Jobs: 1})
	draining.Drain()
	drained := response{http.StatusServiceUnavailable, errorBody("serve: server is draining"), "5"}
	checkResponse(t, "analyze draining", doReq(draining, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip"}`), drained)
	checkResponse(t, "vet draining", doReq(draining, http.MethodPost, "/v1/vet", `{"workload":"164.gzip"}`), drained)
	checkResponse(t, "sweep draining", doReq(draining, http.MethodPost, "/v1/sweep", `{}`), drained)
	// A sweep body empty but for whitespace decodes as an empty one does:
	// the request reaches the queue, and only the drain refuses it.
	for _, body := range []string{"", " \r\n\t "} {
		checkResponse(t, fmt.Sprintf("sweep draining, body %q", body), doReq(draining, http.MethodPost, "/v1/sweep", body), drained)
	}
	draining.Close()

	slow := New(Config{Jobs: 1})
	defer slow.Close()
	var calls atomic.Int32
	slow.analyze = func(ctx context.Context, _ *obs.Span, _ *program.Program, _ core.Config) (*core.Analysis, error) {
		calls.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	slow.sweep = func(ctx context.Context, _ core.Config, _ core.ProgressFunc) error {
		<-ctx.Done()
		return ctx.Err()
	}
	expired := response{statusClientClosedRequest, errorBody("context deadline exceeded"), ""}
	checkResponse(t, "analyze deadline", doReq(slow, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","timeoutMs":20}`), expired)
	checkResponse(t, "sweep deadline", doReq(slow, http.MethodPost, "/v1/sweep", `{"timeoutMs":20}`), expired)
	// A vet request whose deadline passes while it waits behind a busy
	// worker.
	busy := make(chan struct{})
	go func() {
		doReq(slow, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","timeoutMs":300}`)
		close(busy)
	}()
	waitUntil(t, func() bool { return calls.Load() == 2 })
	checkResponse(t, "vet deadline", doReq(slow, http.MethodPost, "/v1/vet", `{"workload":"164.gzip","timeoutMs":20}`), expired)
	<-busy
}

// TestOptimizerFaultIsServerError: a program the Opt stage breaks fails
// its re-verification with an *ir.VerifyError. That is the server's fault,
// not the request's, so it answers 500; ingestion's own verifier
// rejections wrap program.ErrInvalid and answer 422.
func TestOptimizerFaultIsServerError(t *testing.T) {
	err := fmt.Errorf("pipeline: optimizer broke p: %w", &ir.VerifyError{Func: "f", Msg: "bad phi"})
	if got := errorStatus(err); got != http.StatusInternalServerError {
		t.Errorf("optimizer fault: status %d, want 500", got)
	}
}
