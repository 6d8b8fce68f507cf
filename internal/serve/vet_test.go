// Vet endpoint tests: POST /v1/vet runs the static-analysis suite under
// the same ingestion rules as /v1/analyze and must be byte-identical to
// `needle -vet -json` for the same program.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"needle/internal/program"
	"needle/internal/vet"
	"needle/internal/workloads"
)

// cliVetBytes returns exactly what `needle -vet -json` prints for this
// program: MarshalReport plus Println's newline.
func cliVetBytes(t *testing.T, p *program.Program) []byte {
	t.Helper()
	out, err := vet.MarshalReport(vet.Check(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func vetReqBody(t *testing.T, src string) string {
	t.Helper()
	b, err := json.Marshal(map[string]string{"source": src})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestVetMatchesCLIBytes: for every checked-in example — including the
// deliberately diagnostic-heavy ones — the endpoint responds with the
// exact bytes the CLI emits.
func TestVetMatchesCLIBytes(t *testing.T) {
	s := New(Config{Jobs: 1})
	defer s.Close()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "nir", "*.nir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		rr := doReq(s, http.MethodPost, "/v1/vet", vetReqBody(t, string(src)))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d (body %q)", file, rr.Code, rr.Body.String())
		}
		if v := rr.Header().Get("X-Needle-Vet-Schema-Version"); v != fmt.Sprint(vet.ReportSchemaVersion) {
			t.Errorf("%s: vet schema version header %q, want %d", file, v, vet.ReportSchemaVersion)
		}
		p, err := program.Load(string(src), program.LoadOptions{})
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if want := cliVetBytes(t, p); !bytes.Equal(rr.Body.Bytes(), want) {
			t.Errorf("%s: response diverges from CLI bytes:\n got %s\nwant %s", file, rr.Body.Bytes(), want)
		}
	}
}

// TestVetWorkload: workload selection works exactly as /v1/analyze's and
// reproduces `needle -vet -workload <w> -json`.
func TestVetWorkload(t *testing.T) {
	s := New(Config{Jobs: 1})
	defer s.Close()
	w := workloads.All()[0]
	rr := doReq(s, http.MethodPost, "/v1/vet", fmt.Sprintf(`{"workload":%q,"n":500}`, w.Name))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d (body %q)", rr.Code, rr.Body.String())
	}
	p, err := w.Program(500)
	if err != nil {
		t.Fatal(err)
	}
	if want := cliVetBytes(t, p); !bytes.Equal(rr.Body.Bytes(), want) {
		t.Errorf("workload vet diverges from CLI bytes:\n got %s\nwant %s", rr.Body.Bytes(), want)
	}
}

// TestVetDeterministicAcrossRequests: two identical requests produce
// byte-identical responses (vet bypasses the singleflight; determinism is
// a property of the analyses themselves).
func TestVetDeterministicAcrossRequests(t *testing.T) {
	s := New(Config{Jobs: 2})
	defer s.Close()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "nir", "histogram.nir"))
	if err != nil {
		t.Fatal(err)
	}
	a := doReq(s, http.MethodPost, "/v1/vet", vetReqBody(t, string(src)))
	b := doReq(s, http.MethodPost, "/v1/vet", vetReqBody(t, string(src)))
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("statuses %d / %d", a.Code, b.Code)
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Error("identical vet requests produced different bytes")
	}
}
