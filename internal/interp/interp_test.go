package interp_test

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"needle/internal/ballarus"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/oracle"
)

// These tests run every program on both entries of the compiled plan and
// on the tree-walking oracle (see run), so each semantic check holds for
// all three engines at once.

func parse(t testing.TB, src string) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatalf("ParseFunction: %v", err)
	}
	return f
}

func parseModule(t testing.TB, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// run executes f three ways, each over its own copy of mem: on its plan
// unprofiled (interp.Exec) and profiled under its Ball-Larus overlay
// (interp.RunProfiled), and on the tree-walking oracle.Run. It fails t
// unless all three agree on the result, step count, error text and final
// memory, and returns Exec's result and error, leaving mem as Exec left it.
func run(t testing.TB, f *ir.Function, args, mem []uint64, maxSteps int64) (interp.Result, error) {
	t.Helper()
	memO, memP := slices.Clone(mem), slices.Clone(mem)
	resO, errO := oracle.Run(f, args, memO, nil, maxSteps)
	resP, errP := profiled(t, f, args, memP, interp.PlanOpts{MaxSteps: maxSteps})
	res, err := interp.Exec(interp.BuildPlan(f), args, mem, maxSteps)
	if res != resO || errText(err) != errText(errO) || !slices.Equal(mem, memO) {
		t.Fatalf("%s (limit %d): Exec %+v, %v, mem %v; oracle %+v, %v, mem %v",
			f.Name, maxSteps, res, err, mem, resO, errO, memO)
	}
	if resP != resO || errText(errP) != errText(errO) || !slices.Equal(memP, memO) {
		t.Fatalf("%s (limit %d): RunProfiled %+v, %v, mem %v; oracle %+v, %v, mem %v",
			f.Name, maxSteps, resP, errP, memP, resO, errO, memO)
	}
	return res, err
}

// profiled runs f's plan under the Ball-Larus overlay its DAG compiles.
func profiled(t testing.TB, f *ir.Function, args, mem []uint64, opts interp.PlanOpts) (interp.Result, error) {
	t.Helper()
	dag, err := ballarus.Build(nil, f)
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	p := interp.BuildPlan(f)
	return interp.RunProfiled(p, dag.CompilePlan(p), args, mem, interp.NewPathState(p, dag.NumPaths(), false), opts)
}

func buildSumLoop(t testing.TB) *ir.Function {
	// Written with the builder to keep the source honest against typos.
	b := ir.NewBuilder("sum", ir.I64)
	n := b.Param(0)
	zero := b.ConstI(0)
	one := b.ConstI(1)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	entry := b.Block()
	b.Br(head)

	b.SetBlock(head)
	sum := b.Phi(ir.I64)
	i := b.Phi(ir.I64)
	c := b.CmpLT(i, n)
	b.CondBr(c, body, exit)

	b.SetBlock(body)
	sum2 := b.Add(sum, i)
	i2 := b.Add(i, one)
	b.Br(head)

	b.AddIncoming(sum, entry, zero)
	b.AddIncoming(sum, body, sum2)
	b.AddIncoming(i, entry, zero)
	b.AddIncoming(i, body, i2)

	b.SetBlock(exit)
	b.Ret(sum)
	f, err := b.Finish()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return f
}

func TestRunSumLoop(t *testing.T) {
	f := buildSumLoop(t)
	res, err := run(t, f, []uint64{interp.IBits(10)}, nil, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if interp.I(res.Ret) != 45 {
		t.Fatalf("sum(10) = %d, want 45", interp.I(res.Ret))
	}
	if res.Steps == 0 {
		t.Fatal("no steps counted")
	}
}

func TestRunSumLoopProperty(t *testing.T) {
	f := buildSumLoop(t)
	check := func(n uint8) bool {
		res, err := run(t, f, []uint64{interp.IBits(int64(n))}, nil, 0)
		if err != nil {
			return false
		}
		return interp.I(res.Ret) == int64(n)*int64(n-1)/2 || n == 0 && res.Ret == 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunFloatKernel(t *testing.T) {
	src := `func @dist(f64, f64) {
entry:
  r3 = fmul r1, r1
  r4 = fmul r2, r2
  r5 = fadd r3, r4
  r6 = sqrt r5
  ret r6
}
`
	f := parse(t, src)
	res, err := run(t, f, []uint64{interp.FBits(3), interp.FBits(4)}, nil, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := interp.F(res.Ret); math.Abs(got-5) > 1e-12 {
		t.Fatalf("dist(3,4) = %v, want 5", got)
	}
}

func TestRunMemoryOps(t *testing.T) {
	src := `func @scale(i64, i64) {
entry:
  r3 = const.i64 0
  br %head
head:
  r4 = phi.i64 [entry: r3] [body: r8]
  r5 = cmp.lt r4, r2
  condbr r5, %body, %exit
body:
  r6 = add r1, r4
  r7 = load.i64 r6
  r9 = mul r7, r7
  store.i64 r6, r9
  r10 = const.i64 1
  r8 = add r4, r10
  br %head
exit:
  ret
}
`
	f := parse(t, src)
	mem := []uint64{interp.IBits(2), interp.IBits(3), interp.IBits(4)}
	if _, err := run(t, f, []uint64{interp.IBits(0), interp.IBits(3)}, mem, 0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int64{4, 9, 16}
	for i, w := range want {
		if interp.I(mem[i]) != w {
			t.Errorf("mem[%d] = %d, want %d", i, interp.I(mem[i]), w)
		}
	}
}

func TestRunErrors(t *testing.T) {
	divSrc := `func @d(i64, i64) {
entry:
  r3 = div r1, r2
  ret r3
}
`
	f := parse(t, divSrc)
	if _, err := run(t, f, []uint64{interp.IBits(1), interp.IBits(0)}, nil, 0); !errors.Is(err, interp.ErrDivideByZero) {
		t.Errorf("want interp.ErrDivideByZero, got %v", err)
	}

	oobSrc := `func @o(i64) {
entry:
  r2 = load.i64 r1
  ret r2
}
`
	g := parse(t, oobSrc)
	if _, err := run(t, g, []uint64{interp.IBits(99)}, make([]uint64, 4), 0); !errors.Is(err, interp.ErrOutOfBounds) {
		t.Errorf("want interp.ErrOutOfBounds, got %v", err)
	}
	if _, err := run(t, g, []uint64{interp.IBits(-1)}, make([]uint64, 4), 0); !errors.Is(err, interp.ErrOutOfBounds) {
		t.Errorf("negative address: want interp.ErrOutOfBounds, got %v", err)
	}

	loop := buildSumLoop(t)
	if _, err := run(t, loop, []uint64{interp.IBits(1 << 40)}, nil, 100); !errors.Is(err, interp.ErrStepLimit) {
		t.Errorf("want interp.ErrStepLimit, got %v", err)
	}

	if _, err := run(t, loop, nil, nil, 0); err == nil {
		t.Error("want arity error")
	}
}

func TestHooksFireInOrder(t *testing.T) {
	f := buildSumLoop(t)
	var blocks []string
	var edges []string
	var instrs int
	exited := ""
	hooks := &oracle.Hooks{
		Block: func(b *ir.Block) { blocks = append(blocks, b.Name) },
		Edge:  func(from, to *ir.Block) { edges = append(edges, from.Name+"->"+to.Name) },
		Instr: func(in *ir.Instr) { instrs++ },
		Exit:  func(b *ir.Block) { exited = b.Name },
	}
	res, err := oracle.Run(f, []uint64{interp.IBits(2)}, nil, hooks, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantBlocks := []string{"entry", "head", "body", "head", "body", "head", "exit"}
	if len(blocks) != len(wantBlocks) {
		t.Fatalf("blocks = %v, want %v", blocks, wantBlocks)
	}
	for i := range blocks {
		if blocks[i] != wantBlocks[i] {
			t.Fatalf("blocks = %v, want %v", blocks, wantBlocks)
		}
	}
	if len(edges) != len(wantBlocks)-1 {
		t.Fatalf("edges = %v", edges)
	}
	if edges[0] != "entry->head" || edges[len(edges)-1] != "head->exit" {
		t.Fatalf("edges = %v", edges)
	}
	if int64(instrs) != res.Steps {
		t.Fatalf("instr hook fired %d times, steps = %d", instrs, res.Steps)
	}
	if exited != "exit" {
		t.Fatalf("exit block = %q", exited)
	}
}

func TestSelectAndConversions(t *testing.T) {
	src := `func @sel(i64) {
entry:
  r2 = const.i64 10
  r3 = cmp.ge r1, r2
  r4 = sitofp r1
  r5 = const.f64 2.5
  r6 = fmul r4, r5
  r7 = fptosi r6
  r8 = select.i64 r3, r7, r2
  ret r8
}
`
	f := parse(t, src)
	res, err := run(t, f, []uint64{interp.IBits(20)}, nil, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if interp.I(res.Ret) != 50 {
		t.Fatalf("sel(20) = %d, want 50", interp.I(res.Ret))
	}
	res, err = run(t, f, []uint64{interp.IBits(3)}, nil, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if interp.I(res.Ret) != 10 {
		t.Fatalf("sel(3) = %d, want 10", interp.I(res.Ret))
	}
}

func TestBitwiseOpsProperty(t *testing.T) {
	src := `func @bits(i64, i64) {
entry:
  r3 = and r1, r2
  r4 = or r1, r2
  r5 = xor r3, r4
  ret r5
}
`
	f := parse(t, src)
	// a&b ^ a|b == a^b for all a, b.
	check := func(x, y int64) bool {
		res, err := run(t, f, []uint64{interp.IBits(x), interp.IBits(y)}, nil, 0)
		return err == nil && interp.I(res.Ret) == x^y
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCallExecution(t *testing.T) {
	src := `func @sq(i64) {
entry:
  r2 = mul r1, r1
  ret r2
}

func @main(i64) {
entry:
  r2 = call.i64 @sq r1
  r3 = const.i64 1
  r4 = add r2, r3
  r5 = call.i64 @sq r4
  ret r5
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(t, m.Func("main"), []uint64{interp.IBits(3)}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if interp.I(res.Ret) != 100 { // (3*3+1)^2
		t.Fatalf("main(3) = %d, want 100", interp.I(res.Ret))
	}
}

func TestCallDepthLimit(t *testing.T) {
	// Build infinite recursion by hand and confirm the depth guard fires.
	f := &ir.Function{Name: "rec", Params: []ir.Type{ir.I64}, RegType: []ir.Type{ir.I64, ir.I64, ir.I64}}
	blk := &ir.Block{Name: "entry"}
	blk.Instrs = []*ir.Instr{
		{Op: ir.OpCall, Type: ir.I64, Dst: 2, Args: []ir.Reg{1}, Callee: f},
		{Op: ir.OpRet, Type: ir.I64, Args: []ir.Reg{2}},
	}
	f.Blocks = []*ir.Block{blk}
	f.Finish()
	if _, err := run(t, f, []uint64{0}, nil, 0); !errors.Is(err, interp.ErrCallDepth) {
		t.Fatalf("want interp.ErrCallDepth, got %v", err)
	}
}

func TestCallHooksFireForCallee(t *testing.T) {
	src := `func @id(i64) {
entry:
  ret r1
}

func @main(i64) {
entry:
  r2 = call.i64 @id r1
  ret r2
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []string
	hooks := &oracle.Hooks{Block: func(b *ir.Block) { blocks = append(blocks, b.Name) }}
	if _, err := oracle.Run(m.Func("main"), []uint64{interp.IBits(7)}, nil, hooks, 0); err != nil {
		t.Fatal(err)
	}
	// Both functions' entry blocks fire (same name, two functions).
	if len(blocks) != 2 {
		t.Fatalf("block events = %v, want 2 entries", blocks)
	}
}
