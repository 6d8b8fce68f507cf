package interp_test

// Differential tests of the compiled plan against the tree-walking oracle:
// every case goes through run, which compares interp.Exec and
// interp.RunProfiled with oracle.Run on result, steps, error text and
// memory.

import (
	"errors"
	"math"
	"os"
	"testing"

	"needle/internal/interp"
	"needle/internal/ir"
)

// everyLimit runs f unbounded, then under every step limit from 1 to one
// past the full run's step count, so the limit lands on every instruction in turn,
// callee instructions and call sites included. It returns the full run's
// result and error.
func everyLimit(t *testing.T, f *ir.Function, args []uint64, newMem func() []uint64) (interp.Result, error) {
	t.Helper()
	full, err := run(t, f, args, newMem(), 0)
	for limit := int64(1); limit <= full.Steps+1; limit++ {
		run(t, f, args, newMem(), limit)
	}
	return full, err
}

// TestStepLimitExactAtEveryInstruction pins the step budget to every
// position of the dynamic stream in turn: execution must stop with
// ErrStepLimit exactly one instruction past the budget no matter what kind
// of instruction the limit lands on. Phis count as instructions, so a limit
// landing mid-phi-sequence must trip there, not at the next body check.
func TestStepLimitExactAtEveryInstruction(t *testing.T) {
	f := buildSumLoop(t)
	full, err := run(t, f, []uint64{interp.IBits(5)}, nil, 0)
	if err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
	for limit := int64(1); limit < full.Steps; limit++ {
		res, err := run(t, f, []uint64{interp.IBits(5)}, nil, limit)
		if !errors.Is(err, interp.ErrStepLimit) {
			t.Fatalf("limit %d: want ErrStepLimit, got %v", limit, err)
		}
		if res.Steps != limit+1 {
			t.Fatalf("limit %d: stopped at step %d, want %d (limit not enforced at that instruction)",
				limit, res.Steps, limit+1)
		}
	}
}

func TestBuildPlanSumLoop(t *testing.T) {
	f := buildSumLoop(t)
	p := interp.BuildPlan(f)
	if _, err := interp.Exec(p, []uint64{interp.IBits(3)}, nil, 0); err != nil {
		t.Fatalf("sum loop plan: %v", err)
	}
	if p.F() != f {
		t.Error("plan function mismatch")
	}
	// entry->head, head->body, head->exit, body->head.
	if p.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", p.NumEdges())
	}
	seen := make(map[[2]int]bool)
	for s := 0; s < p.NumEdges(); s++ {
		from, to := p.Edge(s)
		if from < 0 || from >= len(f.Blocks) || to < 0 || to >= len(f.Blocks) {
			t.Fatalf("edge %d = (%d,%d) out of range", s, from, to)
		}
		seen[[2]int{from, to}] = true
	}
	if len(seen) != 4 {
		t.Errorf("edges not distinct: %v", seen)
	}
}

// callSrc calls a leaf that loads and stores from a loop body, so a step
// limit can land before, inside and after each call, and memory shows what
// the callee did.
const callSrc = `func @leaf(i64) {
entry:
  r2 = load.i64 r1
  r3 = const.i64 3
  r4 = mul r2, r3
  store.i64 r1, r4
  ret r4
}

func @main(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [body: r4]
  r5 = phi.i64 [entry: r2] [body: r6]
  r7 = cmp.lt r3, r1
  condbr r7, %body, %exit
body:
  r8 = call.i64 @leaf r3
  r6 = add r5, r8
  r9 = const.i64 1
  r4 = add r3, r9
  br %head
exit:
  ret r5
}
`

// TestPlanCallsMatchRun: a plan whose body calls another function runs the
// callee within the caller's step budget, so at every step limit — before,
// inside and after each call — the result, step count, error text and
// memory equal the oracle's.
func TestPlanCallsMatchRun(t *testing.T) {
	f := parseModule(t, callSrc).Func("main")
	newMem := func() []uint64 { return []uint64{1, 2, 3, 4, 5, 6} }
	if _, err := everyLimit(t, f, []uint64{interp.IBits(6)}, newMem); err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
}

// TestPlanTimedCallRefused: callees run unprofiled, so a timed run of a plan
// with calls returns ErrTimedCall instead of a partial feed.
func TestPlanTimedCallRefused(t *testing.T) {
	f := parseModule(t, callSrc).Func("main")
	res, err := profiled(t, f, []uint64{interp.IBits(2)}, make([]uint64, 4), interp.PlanOpts{Timing: nopTiming{}})
	if !errors.Is(err, interp.ErrTimedCall) || res.Steps != 0 {
		t.Errorf("timed run: %+v, %v; want ErrTimedCall before the first step", res, err)
	}
}

type nopTiming struct{}

func (nopTiming) FeedBlock(*interp.TimingPacket, int, []int64) {}
func (nopTiming) NoteBranch(bool)                              {}
func (nopTiming) EndPath(int64)                                {}

// entryPhiSrc has a phi in its entry block, which ir.Verify accepts and
// every run faults on before its first step.
const entryPhiSrc = `func @ep(i64) {
entry:
  r2 = phi.i64 [loop: r3]
  br %loop
loop:
  r3 = add r1, r1
  condbr r3, %entry, %exit
exit:
  ret r3
}
`

// TestPlanEntryPhiError: phis in the entry block make every run fail with
// the tree-walker's exact error, before the first step.
func TestPlanEntryPhiError(t *testing.T) {
	f := parseModule(t, entryPhiSrc).Func("ep")
	const want = "interp: ep.entry: phi r2 has no incoming edge from <nil>"
	res, err := run(t, f, []uint64{1}, nil, 0)
	if errText(err) != want || res.Steps != 0 {
		t.Fatalf("run %+v, %v; want %q at step 0", res, err, want)
	}
}

// faultSrc's callees fault: @ld stores to word 0 and then loads its
// argument's word, @div divides by its second argument, @ep has an entry
// phi, and @sum (whose loop phi loses its back-edge value in the test)
// reaches a phi over an edge it has no value for.
const faultSrc = entryPhiSrc + `
func @ld(i64) {
entry:
  r2 = const.i64 7
  r3 = const.i64 0
  store.i64 r3, r2
  r4 = load.i64 r1
  ret r4
}

func @div(i64, i64) {
entry:
  r3 = div r1, r2
  ret r3
}

func @sum(i64) {
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

func @main(i64, i64, i64) {
entry:
  r4 = call.i64 @ld r1
  r5 = call.i64 @div r4 r2
  r6 = const.i64 0
  r7 = cmp.eq r3, r6
  condbr r7, %done, %more
more:
  r8 = const.i64 1
  r9 = cmp.eq r3, r8
  condbr r9, %phi, %entryphi
phi:
  r10 = call.i64 @sum r3
  ret r10
entryphi:
  r11 = call.i64 @ep r3
  ret r11
done:
  ret r5
}
`

// recSrc recurses once per unit of its argument, so rec(n) nests n calls
// deep; @even and @odd do the same through a cycle of two functions.
const recSrc = `func @rec(i64) {
entry:
  r2 = const.i64 0
  r3 = cmp.eq r1, r2
  condbr r3, %done, %more
more:
  r4 = const.i64 1
  r5 = sub r1, r4
  r6 = call.i64 @rec r5
  r7 = add r6, r4
  ret r7
done:
  ret r2
}

func @even(i64) {
entry:
  r2 = const.i64 0
  r3 = cmp.eq r1, r2
  condbr r3, %yes, %no
yes:
  r4 = const.i64 1
  ret r4
no:
  r5 = const.i64 1
  r6 = sub r1, r5
  r7 = call.i64 @odd r6
  ret r7
}

func @odd(i64) {
entry:
  r2 = const.i64 0
  r3 = cmp.eq r1, r2
  condbr r3, %yes, %no
yes:
  ret r2
no:
  r5 = const.i64 1
  r6 = sub r1, r5
  r7 = call.i64 @even r6
  ret r7
}
`

// TestPlanMatchesOracle compares both plan entries with the oracle on
// programs whose calls survive (nothing here is inlined): the checked-in
// diamond.nir and norm.nir, callees that fault in each way a run can, and
// recursion up to and one past the depth cap of 256 nested calls.
func TestPlanMatchesOracle(t *testing.T) {
	noMem := func() []uint64 { return nil }
	t.Run("diamond", func(t *testing.T) {
		f := readModule(t, "../../examples/nir/diamond.nir").Func("main")
		for _, n := range []int64{0, 1, 64} {
			if _, err := run(t, f, []uint64{interp.IBits(n)}, nil, 0); err != nil {
				t.Fatalf("main(%d): %v", n, err)
			}
		}
		if res, err := everyLimit(t, f, []uint64{interp.IBits(3)}, noMem); err != nil || interp.I(res.Ret) != 27 {
			t.Fatalf("main(3) = %d, %v; want 27", interp.I(res.Ret), err)
		}
	})
	t.Run("norm", func(t *testing.T) {
		f := readModule(t, "../ir/testdata/norm.nir").Func("norm")
		newMem := func() []uint64 {
			mem := make([]uint64, 8)
			for i := range mem {
				mem[i] = interp.FBits(float64(i) + 0.5)
			}
			return mem
		}
		if res, err := everyLimit(t, f, []uint64{0, interp.IBits(8)}, newMem); err != nil || interp.F(res.Ret) != math.Sqrt(170) {
			t.Fatalf("norm = %v, %v; want sqrt(170)", interp.F(res.Ret), err)
		}
	})
	t.Run("faults", func(t *testing.T) {
		m := parseModule(t, faultSrc)
		// Drop @sum's back-edge value: the plan leaves that move table
		// empty, the oracle finds no matching incoming block.
		phi := m.Func("sum").Blocks[1].Instrs[0]
		phi.Blocks, phi.Args = phi.Blocks[:1], phi.Args[:1]
		f := m.Func("main")
		newMem := func() []uint64 { return make([]uint64, 4) }
		for _, c := range []struct {
			name string
			args []int64
			want error
		}{
			{"none", []int64{2, 1, 0}, nil},
			{"out of bounds", []int64{9, 1, 0}, interp.ErrOutOfBounds},
			{"divide by zero", []int64{2, 0, 0}, interp.ErrDivideByZero},
			{"missing phi edge", []int64{2, 1, 1}, interp.ErrNoPhiEdge},
			{"entry phi", []int64{2, 1, 2}, interp.ErrNoPhiEdge},
		} {
			args := make([]uint64, len(c.args))
			for i, a := range c.args {
				args[i] = interp.IBits(a)
			}
			if _, err := everyLimit(t, f, args, newMem); !errors.Is(err, c.want) {
				t.Errorf("%s: %v, want %v", c.name, err, c.want)
			}
		}
	})
	t.Run("recursion", func(t *testing.T) {
		m := parseModule(t, recSrc)
		rec, even := m.Func("rec"), m.Func("even")
		if res, err := everyLimit(t, rec, []uint64{interp.IBits(3)}, noMem); err != nil || res.Ret != 3 {
			t.Fatalf("rec(3) = %d, %v; want 3", res.Ret, err)
		}
		if res, err := everyLimit(t, even, []uint64{interp.IBits(3)}, noMem); err != nil || res.Ret != 0 {
			t.Fatalf("even(3) = %d, %v; want 0", res.Ret, err)
		}
		for _, f := range []*ir.Function{rec, even} {
			if _, err := run(t, f, []uint64{interp.IBits(256)}, nil, 0); err != nil {
				t.Fatalf("%s(256), 256 calls deep: %v", f.Name, err)
			}
			res, err := run(t, f, []uint64{interp.IBits(257)}, nil, 0)
			if !errors.Is(err, interp.ErrCallDepth) {
				t.Fatalf("%s(257), 257 calls deep: %+v, %v; want ErrCallDepth", f.Name, res, err)
			}
			// Limits around the fault land in the deepest frames: below it
			// the step limit trips, from it on the depth cap does.
			for limit := res.Steps - 8; limit <= res.Steps+8; limit++ {
				run(t, f, []uint64{interp.IBits(257)}, nil, limit)
			}
		}
	})
}

func readModule(t *testing.T, path string) *ir.Module {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return parseModule(t, string(src))
}
