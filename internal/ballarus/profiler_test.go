package ballarus_test

// The hook profiler's own tests. They live outside package ballarus because
// the profiler lives in package oracle, which imports ballarus.

import (
	"testing"
	"testing/quick"

	"needle/internal/ballarus"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/oracle"
)

func parseLoopDiamond(t testing.TB) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunction(ballarus.LoopDiamondSrc)
	if err != nil {
		t.Fatalf("ParseFunction: %v", err)
	}
	return f
}

func TestProfilerCountsMatchExecution(t *testing.T) {
	f := parseLoopDiamond(t)
	d, err := ballarus.Build(nil, f)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p := oracle.NewProfiler(d)
	p.RecordTrace = true
	res, err := oracle.Run(f, []uint64{interp.IBits(6)}, nil, p.Hooks(), 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 6 iterations + 1 exit path = 7 path occurrences.
	if got := p.TotalOccurrences(); got != 7 {
		t.Fatalf("occurrences = %d, want 7", got)
	}
	if len(p.Trace) != 7 {
		t.Fatalf("trace length = %d, want 7", len(p.Trace))
	}
	// Every counted path must decode, and attributed ops must sum exactly to
	// the interpreter's dynamic step count (paths partition execution).
	var ops int64
	for id, c := range p.Counts {
		blocks, err := d.DecodeAppend(nil, id)
		if err != nil {
			t.Fatalf("DecodeAppend(%d): %v", id, err)
		}
		ops += c * ballarus.PathOps(blocks)
	}
	if ops != res.Steps {
		t.Fatalf("attributed ops = %d, interpreter steps = %d", ops, res.Steps)
	}
}

// TestProfilerPartitionProperty: for random loop bounds, path-attributed ops
// must always equal interpreter steps, and iteration paths must alternate
// between the even and odd body paths.
func TestProfilerPartitionProperty(t *testing.T) {
	f := parseLoopDiamond(t)
	d, err := ballarus.Build(nil, f)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	check := func(nRaw uint8) bool {
		n := int64(nRaw % 50)
		p := oracle.NewProfiler(d)
		res, err := oracle.Run(f, []uint64{interp.IBits(n)}, nil, p.Hooks(), 0)
		if err != nil {
			return false
		}
		var ops int64
		for id, c := range p.Counts {
			blocks, err := d.DecodeAppend(nil, id)
			if err != nil {
				return false
			}
			ops += c * ballarus.PathOps(blocks)
		}
		return ops == res.Steps && p.TotalOccurrences() == n+1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProfilerMultipleInvocations(t *testing.T) {
	f := parseLoopDiamond(t)
	d, err := ballarus.Build(nil, f)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p := oracle.NewProfiler(d)
	for i := 0; i < 3; i++ {
		if _, err := oracle.Run(f, []uint64{interp.IBits(4)}, nil, p.Hooks(), 0); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if got := p.TotalOccurrences(); got != 15 { // 3 * (4 iterations + exit)
		t.Fatalf("occurrences = %d, want 15", got)
	}
}
