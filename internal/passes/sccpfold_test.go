package passes_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"needle/internal/analysis"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/passes"
	"needle/internal/program"
	"needle/internal/workloads"
)

func parseFn(t testing.TB, src string) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatalf("ParseFunction: %v", err)
	}
	return f
}

// optimize runs the -O pipeline (the transforms the pipeline's Opt stage
// runs, in its order) to a fixed point on a clone of f and verifies the
// result.
func optimize(t testing.TB, f *ir.Function) *ir.Function {
	t.Helper()
	out := ir.CloneFunction(f)
	for passes.SCCPFold(out)+passes.DeadCodeElim(out)+passes.SimplifyCFG(out) > 0 {
	}
	if err := analysis.VerifySSA(out); err != nil {
		t.Fatalf("optimized SSA invalid: %v\n%s", err, ir.Print(out))
	}
	return out
}

func TestSCCPFoldRemovesProvablyUntakenBranch(t *testing.T) {
	f := parseFn(t, `func @f(i64) {
entry:
  r2 = const.i64 1
  r3 = const.i64 10
  condbr r2, %left, %right
left:
  r4 = add r3, r3
  br %join
right:
  r5 = mul r3, r3
  br %join
join:
  r6 = phi.i64 [left: r4] [right: r5]
  ret r6
}`)
	out := optimize(t, f)
	if len(out.Blocks) != 1 {
		t.Fatalf("optimized to %d blocks, want 1 (everything folds into entry):\n%s",
			len(out.Blocks), ir.Print(out))
	}
	// The phi must have become the constant 20.
	mem := make([]uint64, 8)
	res, err := interp.Run(out, []uint64{0}, mem, nil, 0)
	if err != nil || interp.I(res.Ret) != 20 {
		t.Fatalf("optimized run = %d, %v; want 20", interp.I(res.Ret), err)
	}
}

func TestSCCPFoldKeepsDivideByZeroTrap(t *testing.T) {
	f := parseFn(t, `func @f() {
entry:
  r1 = const.i64 7
  r2 = const.i64 0
  r3 = div r1, r2
  ret r1
}`)
	out := optimize(t, f)
	_, err := interp.Run(out, nil, make([]uint64, 8), nil, 0)
	if !errors.Is(err, interp.ErrDivideByZero) {
		t.Fatalf("optimizer erased the divide-by-zero trap (err = %v):\n%s", err, ir.Print(out))
	}
}

func TestSCCPFoldKeepsOutOfBoundsFault(t *testing.T) {
	f := parseFn(t, `func @f() {
entry:
  r1 = const.i64 5000
  r2 = load.i64 r1
  ret r1
}`)
	out := optimize(t, f)
	_, err := interp.Run(out, nil, make([]uint64, 64), nil, 0)
	if !errors.Is(err, interp.ErrOutOfBounds) {
		t.Fatalf("optimizer erased the out-of-bounds fault (err = %v):\n%s", err, ir.Print(out))
	}
}

func TestSCCPFoldCleansAbandonedPhiIncoming(t *testing.T) {
	// The constant-false branch abandons the entry->join edge, but join
	// stays reachable through body: its phi must lose exactly the entry
	// incoming, a case SimplifyCFG alone does not handle.
	f := parseFn(t, `func @f(i64) {
entry:
  r2 = const.i64 0
  r3 = const.i64 5
  condbr r2, %join, %body
body:
  r4 = add r1, r3
  br %join
join:
  r5 = phi.i64 [entry: r3] [body: r4]
  ret r5
}`)
	out := optimize(t, f)
	mem := make([]uint64, 8)
	res, err := interp.Run(out, []uint64{100}, mem, nil, 0)
	if err != nil || interp.I(res.Ret) != 105 {
		t.Fatalf("optimized run = %d, %v; want 105", interp.I(res.Ret), err)
	}
}

// faultClass collapses an interpreter error to the sentinel the harness
// compares: optimization may change step counts but never which fault (if
// any) a program produces.
func faultClass(err error) error {
	for _, sentinel := range []error{
		interp.ErrDivideByZero, interp.ErrOutOfBounds,
		interp.ErrStepLimit, interp.ErrCallDepth,
	} {
		if errors.Is(err, sentinel) {
			return sentinel
		}
	}
	return err
}

// checkEquivalent interprets f unoptimized and optimized with the same
// inputs and asserts identical return value, fault class, and final
// memory image.
func checkEquivalent(t *testing.T, label string, f *ir.Function, args []uint64, memImage []uint64, maxSteps int64) {
	t.Helper()
	mem1 := append([]uint64(nil), memImage...)
	r1, err1 := interp.Run(f, args, mem1, nil, maxSteps)

	opt := optimize(t, f)
	mem2 := append([]uint64(nil), memImage...)
	r2, err2 := interp.Run(opt, args, mem2, nil, maxSteps)

	if faultClass(err1) != faultClass(err2) {
		t.Fatalf("%s: fault changed under -O: %v vs %v", label, err1, err2)
	}
	if err1 == nil && r1.Ret != r2.Ret {
		t.Fatalf("%s: return changed under -O: %#x vs %#x", label, r1.Ret, r2.Ret)
	}
	for i := range mem1 {
		if mem1[i] != mem2[i] {
			t.Fatalf("%s: memory word %d changed under -O: %#x vs %#x", label, i, mem1[i], mem2[i])
		}
	}
	if err1 == nil && r2.Steps > r1.Steps {
		t.Fatalf("%s: -O made execution longer (%d -> %d steps)", label, r1.Steps, r2.Steps)
	}
}

// TestOptEquivalenceAllWorkloads: the -O pipeline preserves semantics on
// every built-in workload, inlined exactly as the pipeline's inline stage
// would hand it to Opt.
func TestOptEquivalenceAllWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		p, err := w.Program(200)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		inlined, err := passes.InlineAll(p.F)
		if err != nil {
			t.Fatalf("%s: inline: %v", w.Name, err)
		}
		checkEquivalent(t, w.Name, inlined, p.Args, p.Memory, 1<<28)
	}
}

// TestOptEquivalenceExamples covers every checked-in .nir example,
// including the deliberately faulting ones (the fault must survive -O).
func TestOptEquivalenceExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "nir", "*.nir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		p, err := program.Load(string(src), program.LoadOptions{Args: []string{"f:2.0", "0", "128", "64"}})
		if err != nil {
			// Arg shapes differ per example; fall back to zero args.
			p, err = program.Load(string(src), program.LoadOptions{})
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
		}
		checkEquivalent(t, filepath.Base(file), p.F, p.Args, p.Memory, 1<<24)
	}
}

// TestOptEquivalenceRandomCFGs is the 300-seed property test over the PR 2
// random reducible-CFG generator.
func TestOptEquivalenceRandomCFGs(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		p := irgen.Generate(seed, irgen.Config{})
		checkEquivalent(t, "seed", p.F, []uint64{interp.IBits(11)}, p.NewMem(), 1<<22)
	}
}
