package ir_test

import (
	"runtime"
	"runtime/debug"
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
//
// The figure is the parser's own work, so that a loaded machine cannot push
// a linear parser past 8x: each parse is timed on its thread's CPU clock,
// which stops while other processes run (a 30 ms parse is preempted where a
// 7 ms one is not), and with the collector held off, whose cycles land more
// often and cost more in the larger parse. The two sizes alternate, so
// whatever noise is left reaches both minimums alike.
func TestParseLinearInFunctionCount(t *testing.T) {
	const n = 20593
	big, small := oneRetModule(n), oneRetModule(n/4)
	if len(big) > 512<<10 {
		t.Fatalf("module is %d bytes, want at most 512 KiB", len(big))
	}
	parse := func(src string) time.Duration {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		start := threadCPU()
		m, err := ir.Parse(src)
		d := threadCPU() - start
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Funcs) == 0 || m.Funcs[len(m.Funcs)-1].Name != strconv.FormatInt(int64(len(m.Funcs)-1), 36) {
			t.Fatalf("parsed %d functions out of order", len(m.Funcs))
		}
		return d
	}
	tBig, tSmall := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 9; i++ {
		if d := parse(big); d < tBig {
			tBig = d
		}
		if d := parse(small); d < tSmall {
			tSmall = d
		}
	}
	if tBig > 8*tSmall {
		t.Errorf("%d functions parse in %v, %d in %v: %.1fx for 4x the functions", n, tBig, n/4, tSmall,
			float64(tBig)/float64(tSmall))
	}
}
