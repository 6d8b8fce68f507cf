package ir_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"needle/internal/ir"
)

// oneRetModule returns a module of n functions whose bodies are a single
// return, in the most compact text the parser accepts.
func oneRetModule(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString("func @" + strconv.FormatInt(int64(i), 36) + "(){\ne:\nret\n}\n")
	}
	return sb.String()
}

// TestParseLinearInFunctionCount: duplicate checks and call resolution
// probe a name table, so parsing a module is linear in its function count.
// The module is the service's worst case: 20,593 one-return functions in
// under 512 KiB, its source cap, which took about a second when each
// function scanned the module's list. Quadrupling the function count must
// not much more than quadruple the time (a quadratic parser shows 16x).
func TestParseLinearInFunctionCount(t *testing.T) {
	const n = 20593
	big, small := oneRetModule(n), oneRetModule(n/4)
	if len(big) > 512<<10 {
		t.Fatalf("module is %d bytes, want at most 512 KiB", len(big))
	}
	best := func(src string) time.Duration {
		min := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			m, err := ir.Parse(src)
			if d := time.Since(start); d < min {
				min = d
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Funcs) == 0 || m.Funcs[len(m.Funcs)-1].Name != strconv.FormatInt(int64(len(m.Funcs)-1), 36) {
				t.Fatalf("parsed %d functions out of order", len(m.Funcs))
			}
		}
		return min
	}
	tBig, tSmall := best(big), best(small)
	if tBig > 8*tSmall {
		t.Errorf("%d functions parse in %v, %d in %v: %.1fx for 4x the functions", n, tBig, n/4, tSmall,
			float64(tBig)/float64(tSmall))
	}
}
