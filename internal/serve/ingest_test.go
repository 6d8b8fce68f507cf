// Ingestion tests for inline-source analysis: request caps (413), invalid
// programs (422), mutual exclusion with workload requests (400), and the
// CLI byte-identity contract for accepted source.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"needle/internal/core"
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

// TestAnalyzeSourceRejections pins the ingestion status mapping: over-cap
// payloads and programs are 413, malformed programs are 422, shape
// conflicts are 400 — and none of them reach the pipeline.
func TestAnalyzeSourceRejections(t *testing.T) {
	lim := DefaultLimits()
	lim.MaxSourceBytes = 1 << 10
	lim.MaxInstrs = 64
	lim.MaxMemWords = 1 << 16
	s := New(Config{Jobs: 1, MaxBodyBytes: 16 << 10, Limits: lim})
	defer s.Close()
	ran := false
	s.analyze = func(context.Context, *obs.Span, *program.Program, core.Config) (*core.Analysis, error) {
		ran = true
		return nil, nil
	}

	cases := []struct {
		name string
		body string
		want int
	}{
		{"oversized request body", sourceReq(t, analyzeRequest{Source: ingestSrc + strings.Repeat(";x\n", 8<<10)}), http.StatusRequestEntityTooLarge},
		{"oversized source", sourceReq(t, analyzeRequest{Source: "; pad\n" + strings.Repeat("; padding line\n", 80) + ingestSrc}), http.StatusRequestEntityTooLarge},
		{"oversized memory image", sourceReq(t, analyzeRequest{Source: ingestSrc, MemWords: 1 << 20}), http.StatusRequestEntityTooLarge},
		{"unparsable source", sourceReq(t, analyzeRequest{Source: "this is not nir"}), http.StatusUnprocessableEntity},
		{"unverifiable source", sourceReq(t, analyzeRequest{Source: "func @f(i64) {\nentry:\n  condbr r1, %a, %b\na:\n  ret r1\nb:\n  ret\n}\n"}), http.StatusUnprocessableEntity},
		{"unknown entry", sourceReq(t, analyzeRequest{Source: ingestSrc, Entry: "missing"}), http.StatusUnprocessableEntity},
		{"excess arguments", sourceReq(t, analyzeRequest{Source: ingestSrc, Args: []string{"1", "2"}}), http.StatusUnprocessableEntity},
		{"bad argument literal", sourceReq(t, analyzeRequest{Source: ingestSrc, Args: []string{"zebra"}}), http.StatusUnprocessableEntity},
		{"workload and source", sourceReq(t, analyzeRequest{Workload: "164.gzip", Source: ingestSrc}), http.StatusBadRequest},
		{"source options on workload", sourceReq(t, analyzeRequest{Workload: "164.gzip", Args: []string{"1"}}), http.StatusBadRequest},
		{"neither workload nor source", `{"n":100}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rr := doReq(s, http.MethodPost, "/v1/analyze", tc.body)
		if rr.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %q)", tc.name, rr.Code, tc.want, rr.Body.String())
		}
		var e map[string]string
		if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Errorf("%s: rejection body is not an error object: %q", tc.name, rr.Body.String())
		}
	}
	if ran {
		t.Error("a rejected request reached the analyze seam")
	}

	// A static-instruction bomb: many tiny functions under the source cap.
	var instrBomb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&instrBomb, "func @f%d() {\nentry:\n  r1 = const.i64 %d\n  ret r1\n}\n", i, i)
	}
	rr := doReq(s, http.MethodPost, "/v1/analyze", sourceReq(t, analyzeRequest{Source: instrBomb.String()}))
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("instruction bomb: status %d, want 413 (body %q)", rr.Code, rr.Body.String())
	}
}

// TestAnalyzeSourceStepCap: an explicit interpreter bound above the server
// cap is rejected with 422; an absent bound is clamped and the request
// succeeds.
func TestAnalyzeSourceStepCap(t *testing.T) {
	lim := DefaultLimits()
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
// POST /v1/analyze, with the hook interpreter's error text and status 500.
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
	if rr.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500 (body %q)", rr.Code, rr.Body.String())
	}
	var e map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e["error"] != want {
		t.Errorf("error body %q, want error %q", rr.Body.String(), want)
	}
}
