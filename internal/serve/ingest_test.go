// Ingestion tests for inline-source analysis: the server's run bounds and
// the CLI byte-identity contract for accepted source. Every rejection's
// status and body is pinned in responses_test.go's TestResponseTable.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"needle/internal/core"
	"needle/internal/interp"
	"needle/internal/obs"
	"needle/internal/program"
)

// ingestSrc is a small terminating kernel used across the ingestion tests.
const ingestSrc = `func @count(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [body: r4]
  r5 = cmp.lt r3, r1
  condbr r5, %body, %exit
body:
  r6 = const.i64 1
  r4 = add r3, r6
  br %head
exit:
  ret r3
}
`

func sourceReq(t *testing.T, req analyzeRequest) string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestAnalyzeSourceStepCap: an explicit interpreter bound above the server
// cap is rejected with 422; an absent bound is clamped and the request
// succeeds.
func TestAnalyzeSourceStepCap(t *testing.T) {
	lim := program.DefaultLimits()
	lim.MaxSteps = 1_000_000
	s := New(Config{Jobs: 1, Limits: lim})
	defer s.Close()

	over := core.DefaultConfig()
	over.Sim.MaxSteps = lim.MaxSteps + 1
	rr := doReq(s, http.MethodPost, "/v1/analyze", sourceReq(t, analyzeRequest{Source: ingestSrc, Config: &over}))
	if rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("over-cap maxSteps: status %d, want 422 (body %q)", rr.Code, rr.Body.String())
	}

	rr = doReq(s, http.MethodPost, "/v1/analyze", sourceReq(t, analyzeRequest{Source: ingestSrc, Args: []string{"10"}}))
	if rr.Code != http.StatusOK {
		t.Errorf("clamped request: status %d (body %q)", rr.Code, rr.Body.String())
	}
}

// TestAnalyzeOccurrenceCap: a run that would trace more path occurrences
// than the server allows stops with 422, an explicit bound above the cap is
// rejected, and an absent one is clamped.
func TestAnalyzeOccurrenceCap(t *testing.T) {
	lim := program.DefaultLimits()
	lim.MaxOccurrences = 1000
	s := New(Config{Jobs: 1, Limits: lim})
	defer s.Close()

	over := core.DefaultConfig()
	over.Sim.MaxOccurrences = lim.MaxOccurrences + 1
	rr := doReq(s, http.MethodPost, "/v1/analyze", sourceReq(t, analyzeRequest{Source: ingestSrc, Config: &over}))
	if rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("over-cap maxOccurrences: status %d, want 422 (body %q)", rr.Code, rr.Body.String())
	}
	rr = doReq(s, http.MethodPost, "/v1/analyze", sourceReq(t, analyzeRequest{Source: ingestSrc, Args: []string{"5000"}}))
	if rr.Code != http.StatusUnprocessableEntity || !strings.Contains(rr.Body.String(), "occurrence limit") {
		t.Errorf("5000 iterations under a 1000-occurrence cap: status %d, want 422 (body %q)", rr.Code, rr.Body.String())
	}
	rr = doReq(s, http.MethodPost, "/v1/analyze", sourceReq(t, analyzeRequest{Source: ingestSrc, Args: []string{"500"}}))
	if rr.Code != http.StatusOK {
		t.Errorf("500 iterations: status %d (body %q)", rr.Code, rr.Body.String())
	}
}

// TestWorkloadRequestBounds: a workload request's size and run are bounded
// like a source request's. An n whose memory image exceeds the cap is 413
// before anything is materialized; a huge n runs into the occurrence cap
// (422); an unset or negative run bound takes the server's cap; and many
// distinct sizes are each served.
func TestWorkloadRequestBounds(t *testing.T) {
	lim := program.DefaultLimits()
	lim.MaxOccurrences = 1 << 14
	s := New(Config{Jobs: 1, Limits: lim})
	defer s.Close()

	if rr := doReq(s, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","n":1e12}`); rr.Code != http.StatusBadRequest {
		t.Errorf("n 1e12 (not an integer literal): status %d, want 400 (body %q)", rr.Code, rr.Body.String())
	}
	rr := doReq(s, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","n":1000000000000}`)
	if rr.Code != http.StatusUnprocessableEntity || !strings.Contains(rr.Body.String(), "occurrence limit") {
		t.Errorf("n 10^12: status %d, want 422 from the occurrence cap (body %q)", rr.Code, rr.Body.String())
	}
	for n := 100; n < 124; n++ {
		if rr := doReq(s, http.MethodPost, "/v1/analyze", fmt.Sprintf(`{"workload":"164.gzip","n":%d}`, n)); rr.Code != http.StatusOK {
			t.Fatalf("n %d: status %d (body %q)", n, rr.Code, rr.Body.String())
		}
	}

	small := program.DefaultLimits()
	small.MaxMemWords = 1024 // 164.gzip's image is 16384 words
	s2 := New(Config{Jobs: 1, Limits: small})
	defer s2.Close()
	var ran []core.Config
	s2.analyze = func(_ context.Context, _ *obs.Span, _ *program.Program, cfg core.Config) (*core.Analysis, error) {
		ran = append(ran, cfg)
		return nil, interp.ErrStepLimit
	}
	if rr := doReq(s2, http.MethodPost, "/v1/analyze", `{"workload":"164.gzip","n":100}`); rr.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-cap memory image: status %d, want 413 (body %q)", rr.Code, rr.Body.String())
	}
	if len(ran) != 0 {
		t.Fatal("an over-cap workload request reached the analyze seam")
	}
	s2.cfg.Limits.MaxMemWords = 0
	doReq(s2, http.MethodPost, "/v1/analyze", `{"workload":"470.lbm","config":{"Sim":{"MaxSteps":-1,"MaxOccurrences":-5}}}`)
	if len(ran) != 1 || ran[0].Sim.MaxSteps != small.MaxSteps || ran[0].Sim.MaxOccurrences != small.MaxOccurrences {
		t.Fatalf("negative run bounds reached the pipeline as %+v, want the caps", ran)
	}
}

// nirCLIBytes returns exactly what `needle -nir <file> -json` prints for
// this source and options: the shared loader into the program-first core
// API, MarshalSummaries plus Println's newline.
func nirCLIBytes(t *testing.T, src string, opts program.LoadOptions, cfg core.Config) []byte {
	t.Helper()
	p, err := program.Load(src, opts)
	if err != nil {
		t.Fatalf("reference load: %v", err)
	}
	a, err := core.New().Run(context.Background(), p, cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	out, err := core.MarshalSummaries([]*core.Analysis{a})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestAnalyzeSourceMatchesCLIBytes is the inline-source differential test:
// POSTing a program as source must respond with the exact bytes
// `needle -nir <file> -json` prints for the same program, arguments, and
// config.
func TestAnalyzeSourceMatchesCLIBytes(t *testing.T) {
	s := New(Config{Jobs: 1})
	defer s.Close()

	rr := doReq(s, http.MethodPost, "/v1/analyze",
		sourceReq(t, analyzeRequest{Source: ingestSrc, Args: []string{"25"}}))
	if rr.Code != http.StatusOK {
		t.Fatalf("source analyze: status %d (body %q)", rr.Code, rr.Body.String())
	}
	if v := rr.Header().Get("X-Needle-Schema-Version"); v != fmt.Sprint(core.SummarySchemaVersion) {
		t.Errorf("schema version header %q, want %d", v, core.SummarySchemaVersion)
	}
	want := nirCLIBytes(t, ingestSrc, program.LoadOptions{Args: []string{"25"}}, core.DefaultConfig())
	if !bytes.Equal(rr.Body.Bytes(), want) {
		t.Errorf("source response diverges from CLI bytes:\n got %s\nwant %s", rr.Body.Bytes(), want)
	}

	var sums []core.Summary
	if err := json.Unmarshal(rr.Body.Bytes(), &sums); err != nil || len(sums) != 1 {
		t.Fatalf("response is not a one-summary array: %v", err)
	}
	if sums[0].Workload != "count" || sums[0].Suite != program.SuiteUser {
		t.Errorf("summary identity = %s/%s, want count/%s", sums[0].Workload, sums[0].Suite, program.SuiteUser)
	}

	// Entry selection and explicit memory also travel byte-identically.
	two := ingestSrc + "\nfunc @late(i64) {\nentry:\n  r2 = const.i64 3\n  r3 = mul r1, r2\n  ret r3\n}\n"
	opts := program.LoadOptions{Entry: "late", MemWords: 8192, Args: []string{"7"}}
	rr = doReq(s, http.MethodPost, "/v1/analyze",
		sourceReq(t, analyzeRequest{Source: two, Entry: "late", MemWords: 8192, Args: []string{"7"}}))
	if rr.Code != http.StatusOK {
		t.Fatalf("entry-selected analyze: status %d (body %q)", rr.Code, rr.Body.String())
	}
	if want := nirCLIBytes(t, two, opts, core.DefaultConfig()); !bytes.Equal(rr.Body.Bytes(), want) {
		t.Errorf("entry-selected response diverges from CLI bytes:\n got %s\nwant %s", rr.Body.Bytes(), want)
	}
}

// TestAnalyzeDiamondInlines: examples/nir/diamond.nir reaches @a in two
// inlining rounds (directly from main and through @b). The program
// verifies, so POST /v1/analyze must answer 200 with the bytes
// `needle -nir examples/nir/diamond.nir -args 64 -json` prints; the
// inliner once named both inlined bodies of @a alike and failed with 500.
func TestAnalyzeDiamondInlines(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "nir", "diamond.nir"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Jobs: 1})
	defer s.Close()
	rr := doReq(s, http.MethodPost, "/v1/analyze",
		sourceReq(t, analyzeRequest{Source: string(src), Args: []string{"64"}}))
	if rr.Code != http.StatusOK {
		t.Fatalf("diamond analyze: status %d (body %q)", rr.Code, rr.Body.String())
	}
	want := nirCLIBytes(t, string(src), program.LoadOptions{Args: []string{"64"}}, core.DefaultConfig())
	if !bytes.Equal(rr.Body.Bytes(), want) {
		t.Errorf("diamond response diverges from CLI bytes:\n got %s\nwant %s", rr.Body.Bytes(), want)
	}
}

// TestAnalyzeSourcePipelineRejection: a program that verifies but faults
// when it runs is the request's fault, so it is a 422 carrying the typed
// error, not a 500.
func TestAnalyzeSourcePipelineRejection(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "nir", "oob.nir"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Jobs: 1})
	defer s.Close()
	rr := doReq(s, http.MethodPost, "/v1/analyze", sourceReq(t, analyzeRequest{Source: string(src)}))
	if rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("oob analyze: status %d, want 422 (body %q)", rr.Code, rr.Body.String())
	}
	var e map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || !strings.Contains(e["error"], interp.ErrOutOfBounds.Error()) {
		t.Errorf("oob analyze: error body %q does not name %q", rr.Body.String(), interp.ErrOutOfBounds)
	}
}

// entryPhiSrc loops back into its entry block, so the entry phi has no
// value when the function starts: the program verifies but cannot run.
const entryPhiSrc = `func @ep(i64) {
entry:
  r2 = phi.i64 [loop: r3]
  r4 = const.i64 1
  br %loop
loop:
  r3 = add r1, r4
  r5 = cmp.lt r3, r1
  condbr r5, %entry, %exit
exit:
  ret r3
}
`

// TestEntryPhiFaultParity: a program the compiled plan cannot run fails
// identically through the Analyzer (the `needle -nir` path) and through
// POST /v1/analyze, with the tree-walker's error text; the fault is
// typed (interp.ErrNoPhiEdge), so the service answers 422.
func TestEntryPhiFaultParity(t *testing.T) {
	const want = "pipeline: capturing ep: interp: ep.entry: phi r2 has no incoming edge from <nil>"
	p, err := program.Load(entryPhiSrc, program.LoadOptions{Args: []string{"4"}})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := core.New().Run(context.Background(), p, core.DefaultConfig()); err == nil || err.Error() != want {
		t.Errorf("Analyzer error %v, want %q", err, want)
	}

	s := New(Config{Jobs: 1})
	defer s.Close()
	rr := doReq(s, http.MethodPost, "/v1/analyze", sourceReq(t, analyzeRequest{Source: entryPhiSrc, Args: []string{"4"}}))
	if rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("status %d, want 422 (body %q)", rr.Code, rr.Body.String())
	}
	var e map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e["error"] != want {
		t.Errorf("error body %q, want error %q", rr.Body.String(), want)
	}
}

// TestBodyBuffersAreReused: on one server, a body too large for its buffer
// to be kept and small ones before and after it decode to the same
// request, so vet and analyze answer each with the same bytes.
func TestBodyBuffersAreReused(t *testing.T) {
	s := New(Config{Jobs: 1})
	defer s.Close()
	small := sourceReq(t, analyzeRequest{Source: ingestSrc, Args: []string{"5"}})
	large := small[:len(small)-1] + strings.Repeat(" \n", maxPooledBody) + "}"
	for _, path := range []string{"/v1/vet", "/v1/analyze"} {
		want := doReq(s, http.MethodPost, path, small)
		if want.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, want.Code, want.Body)
		}
		for i, body := range []string{large, small, large, large, small} {
			if got := doReq(s, http.MethodPost, path, body); got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Errorf("%s, request %d (%d bytes): %d %q, want %d %q", path, i, len(body), got.Code, got.Body, want.Code, want.Body)
			}
		}
	}
}
