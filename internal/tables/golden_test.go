package tables

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"needle/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden table files")

// TestSuiteGolden pins the full text `needle -all` and `needle -all -O`
// print: every table and figure over the 29 workloads at their default
// sizes. A refactor that perturbs any reported number fails here. After an
// intentional change, regenerate with:
//
//	go test ./internal/tables -run TestSuiteGolden -update
func TestSuiteGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  bool
	}{
		{"all", false},
		{"all_O", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Opt = tc.opt
			s, err := Run(context.Background(), core.New(), cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got := []byte(s.All() + "\n")
			golden := filepath.Join("testdata", tc.name+".golden.txt")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("tables drifted from golden file %s\n(run with -update after an intentional change)\ngot:\n%s\nwant:\n%s",
					golden, got, want)
			}
		})
	}
}
