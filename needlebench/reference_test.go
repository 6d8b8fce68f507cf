package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"needle/internal/core"
	"needle/internal/program"
	"needle/internal/workloads"
)

// TestReferencesMatchCode pins the embedded reference summaries to what
// the analyzer produces now for every workload at its default size.
func TestReferencesMatchCode(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	progs, err := materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		a, err := core.New().Run(context.Background(), p, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		body, err := summaryBytes(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, refs[p.Name]) {
			t.Errorf("%s: reference summary is stale (regenerate with -write-reference reference)", p.Name)
		}
	}
}

// TestReferencesAgreeWithCoreGoldens pins the benchmark's summary encoding
// to the core package's golden files (which use non-default sizes): the
// same code path reproduces them byte for byte, and the default-size
// references carry exactly the goldens' fields.
func TestReferencesAgreeWithCoreGoldens(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		n    int
	}{{"164.gzip", 1200}, {"456.hmmer", 1500}} {
		golden, err := os.ReadFile(filepath.Join("..", "internal", "core", "testdata", "summary_"+tc.name+".golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		w := workloads.ByName(tc.name)
		f, args, mem := w.Instance(tc.n)
		p, err := program.New(w.Name, w.Suite, f, args, mem)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.N = tc.n
		a, err := core.New().Run(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		body, err := summaryBytes(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, golden) {
			t.Errorf("%s at n=%d: summary differs from the core golden file", tc.name, tc.n)
		}
		if g, r := fieldNames(t, golden), fieldNames(t, refs[tc.name]); !reflect.DeepEqual(g, r) {
			t.Errorf("%s: reference fields %v, golden fields %v", tc.name, r, g)
		}
	}
}

func fieldNames(t *testing.T, raw []byte) []string {
	var s []map[string]any
	if err := json.Unmarshal(raw, &s); err != nil || len(s) != 1 {
		t.Fatalf("want one summary, got %d (%v)", len(s), err)
	}
	var out []string
	for k := range s[0] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
