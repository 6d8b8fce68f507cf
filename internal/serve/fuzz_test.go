package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"needle/internal/core"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/pipeline"
	"needle/internal/program"
)

// FuzzAnalyze drives untrusted .nir text, with comma-separated entry
// arguments, through what POST /v1/analyze does with it: ingestion under
// DefaultLimits (the service's own resolveProgram), then the full pipeline
// through core. The contract:
//   - nothing panics;
//   - a rejected input returns a typed error: ingestion wraps
//     program.ErrInvalid or program.ErrTooLarge and maps to 422 or 413, and
//     a pipeline failure wraps one of pipelineRejections and maps to 422;
//   - a second analysis, through a warm pipeline.DiskStore that the first
//     analysis filled from cold, gives byte-identical summary JSON (its
//     profile decoded from disk), or the same error.
func FuzzAnalyze(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "nir", "*.nir"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example corpus: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), "")
		if filepath.Base(p) == "diamond.nir" {
			f.Add(string(src), "64") // two inlining rounds reach one callee
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(ir.Print(irgen.Generate(seed, irgen.DefaultConfig()).F), fmt.Sprint(seed*7+3))
	}

	s := New(Config{Jobs: 1, Limits: program.DefaultLimits()})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, src, args string) {
		if src == "" {
			return // no source is a malformed request (400), not a program
		}
		req := &analyzeRequest{Source: src}
		if args != "" {
			req.Args = strings.Split(args, ",")
		}
		p, cfg, err := s.resolveProgram(req)
		if err != nil {
			status := errorStatus(err)
			typed := errors.Is(err, program.ErrInvalid) || errors.Is(err, program.ErrTooLarge)
			if !typed || (status != http.StatusUnprocessableEntity && status != http.StatusRequestEntityTooLarge) {
				t.Fatalf("ingestion rejected with status %d and untyped error: %v", status, err)
			}
			return
		}
		dir := t.TempDir()
		out, err := analyzeJSON(t, p, cfg, dir)
		again, errAgain := analyzeJSON(t, p, cfg, dir)
		if err != nil {
			typed := false
			for _, want := range pipelineRejections {
				typed = typed || errors.Is(err, want)
			}
			if !typed {
				t.Fatalf("pipeline rejected with an untyped error: %v", err)
			}
			if status := errorStatus(err); status != http.StatusUnprocessableEntity {
				t.Fatalf("pipeline rejection %v maps to status %d, want 422", err, status)
			}
			if errAgain == nil || errAgain.Error() != err.Error() {
				t.Fatalf("second run's error differs: %v, then %v", err, errAgain)
			}
			return
		}
		if errAgain != nil {
			t.Fatalf("second run failed: %v", errAgain)
		}
		if !bytes.Equal(out, again) {
			t.Fatalf("summary JSON differs between a cold and a warm store:\ncold:\n%s\nwarm:\n%s", out, again)
		}
	})
}

// analyzeJSON runs p through the pipeline on a new DiskStore handle over
// dir, and marshals its summary as the service does. When dir already
// holds p's artifacts, it requires the run to have decoded its profile.
func analyzeJSON(t *testing.T, p *program.Program, cfg core.Config, dir string) ([]byte, error) {
	warm := len(mustGlob(t, filepath.Join(dir, "profile-*"))) > 0
	store, err := pipeline.NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.New(core.WithStore(store)).Run(context.Background(), p, cfg)
	if err != nil {
		return nil, err
	}
	if hits := store.Stats()["profile"].DiskHits; warm && hits != 1 {
		t.Fatalf("warm run decoded %d profiles, want 1", hits)
	}
	return core.MarshalSummaries([]*core.Analysis{a})
}

func mustGlob(t *testing.T, pattern string) []string {
	m, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
