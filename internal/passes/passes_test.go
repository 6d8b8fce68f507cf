package passes

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"needle/internal/analysis"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/profile"
)

// moduleSrc: a caller invoking two small helpers, one of them with internal
// control flow (two return sites).
const moduleSrc = `func @absdiff(i64, i64) {
entry:
  r3 = cmp.gt r1, r2
  condbr r3, %gt, %le
gt:
  r4 = sub r1, r2
  ret r4
le:
  r5 = sub r2, r1
  ret r5
}

func @scale(i64) {
entry:
  r2 = const.i64 3
  r3 = mul r1, r2
  ret r3
}

func @main(i64, i64) {
entry:
  r3 = call.i64 @absdiff r1 r2
  r4 = call.i64 @scale r3
  r5 = add r3, r4
  ret r5
}
`

func parseMain(t testing.TB) *ir.Function {
	t.Helper()
	m, err := ir.Parse(moduleSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return m.Func("main")
}

func TestInlineAllPreservesSemantics(t *testing.T) {
	f := parseMain(t)
	inlined, err := InlineAll(f)
	if err != nil {
		t.Fatalf("InlineAll: %v", err)
	}
	if err := analysis.VerifySSA(inlined); err != nil {
		t.Fatalf("inlined SSA invalid: %v", err)
	}
	for _, b := range inlined.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				t.Fatal("calls remain after InlineAll")
			}
		}
	}
	check := func(x, y int16) bool {
		a := []uint64{interp.IBits(int64(x)), interp.IBits(int64(y))}
		r1, err1 := interp.Run(f, a, nil, nil, 0)
		r2, err2 := interp.Run(inlined, a, nil, nil, 0)
		return err1 == nil && err2 == nil && r1.Ret == r2.Ret
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInlineMultipleReturnSitesBecomePhi(t *testing.T) {
	f := parseMain(t)
	inlined, err := InlineAll(f)
	if err != nil {
		t.Fatal(err)
	}
	// absdiff has two return sites -> its continuation must start with a phi.
	found := false
	for _, b := range inlined.Blocks {
		if strings.Contains(b.Name, "absdiff") && strings.HasSuffix(b.Name, "cont") {
			if len(b.Phis()) == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("expected a merge phi at the absdiff continuation")
	}
}

func TestInlineNoCallsIsIdentity(t *testing.T) {
	src := `func @f(i64) {
entry:
  r2 = add r1, r1
  ret r2
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := InlineAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatal("call-free function should be returned unchanged")
	}
}

// TestInlineDiamondNamesBlocksOnce: examples/nir/diamond.nir's main calls
// @a directly and again through @b, so @a is inlined in the first round
// and again in the second. Each inlined body must get its own block
// prefix (numbering restarted per round once named both "a.in1.*"), and
// the result must compute what the original does.
func TestInlineDiamondNamesBlocksOnce(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "nir", "diamond.nir"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	f := m.Func("main")
	inlined, err := InlineAll(f)
	if err != nil {
		t.Fatalf("InlineAll: %v", err)
	}
	seen := make(map[string]bool)
	bodies := 0
	for _, b := range inlined.Blocks {
		if seen[b.Name] {
			t.Fatalf("duplicate block name %q", b.Name)
		}
		seen[b.Name] = true
		if strings.HasPrefix(b.Name, "a.") && strings.HasSuffix(b.Name, ".entry") {
			bodies++
		}
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				t.Fatal("calls remain after InlineAll")
			}
		}
	}
	if bodies != 2 {
		t.Fatalf("@a inlined %d times, want 2", bodies)
	}
	for _, n := range []int64{0, 1, 7, 64} {
		args := []uint64{interp.IBits(n)}
		want, err1 := interp.Run(f, args, nil, nil, 0)
		got, err2 := interp.Run(inlined, args, nil, nil, 0)
		if err1 != nil || err2 != nil || got.Ret != want.Ret {
			t.Fatalf("n=%d: inlined returns %v (%v), original %v (%v)", n, got, err2, want, err1)
		}
	}
}

func TestInlineRejectsRecursion(t *testing.T) {
	// rec(n) = rec(n): direct recursion, assembled by hand because the
	// builder cannot reference a function's own (not yet known) return type.
	f := &ir.Function{Name: "rec", Params: []ir.Type{ir.I64}, RegType: []ir.Type{ir.I64, ir.I64, ir.I64}}
	blk := &ir.Block{Name: "entry"}
	blk.Instrs = []*ir.Instr{
		{Op: ir.OpCall, Type: ir.I64, Dst: 2, Args: []ir.Reg{1}, Callee: f},
		{Op: ir.OpRet, Type: ir.I64, Args: []ir.Reg{2}},
	}
	f.Blocks = []*ir.Block{blk}
	f.Finish()
	if _, err := InlineAll(f); !errors.Is(err, ErrInlineDepth) {
		t.Fatalf("InlineAll(rec) = %v, want ErrInlineDepth", err)
	}
}

func TestDeadCodeElim(t *testing.T) {
	src := `func @f(i64) {
entry:
  r2 = add r1, r1
  r3 = mul r2, r2
  r4 = xor r1, r2
  ret r2
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	// r3 and r4 are dead.
	if removed := DeadCodeElim(f); removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	res, err := interp.Run(f, []uint64{interp.IBits(21)}, nil, nil, 0)
	if err != nil || interp.I(res.Ret) != 42 {
		t.Fatalf("semantics broken: %v %v", res, err)
	}
}

func TestDeadCodeElimCascades(t *testing.T) {
	src := `func @f(i64) {
entry:
  r2 = add r1, r1
  r3 = mul r2, r2
  r4 = xor r3, r3
  ret r1
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	// r4 dead -> r3 dead -> r2 dead: the whole chain goes.
	if removed := DeadCodeElim(f); removed != 3 {
		t.Fatalf("removed %d, want 3 (cascade)", removed)
	}
}

func TestDeadCodeKeepsStoresAndLoads(t *testing.T) {
	src := `func @f(i64) {
entry:
  r2 = load.i64 r1
  store.i64 r1, r1
  ret r1
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	if removed := DeadCodeElim(f); removed != 0 {
		t.Fatalf("removed %d memory ops, want 0", removed)
	}
}

func TestConstFold(t *testing.T) {
	src := `func @f() {
entry:
  r1 = const.i64 6
  r2 = const.i64 7
  r3 = mul r1, r2
  r4 = cmp.lt r1, r2
  r5 = add r3, r4
  ret r5
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	if folded := ConstFold(f); folded != 3 {
		t.Fatalf("folded %d, want 3", folded)
	}
	res, err := interp.Run(f, nil, nil, nil, 0)
	if err != nil || interp.I(res.Ret) != 43 {
		t.Fatalf("semantics broken: ret=%d err=%v", interp.I(res.Ret), err)
	}
	// After folding, the mul must literally be a constant instruction.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpMul {
				t.Fatal("mul not folded")
			}
		}
	}
}

func TestConstFoldFloat(t *testing.T) {
	src := `func @f() {
entry:
  r1 = const.f64 1.5
  r2 = const.f64 2.5
  r3 = fmul r1, r2
  ret r3
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	if folded := ConstFold(f); folded != 1 {
		t.Fatalf("folded %d, want 1", folded)
	}
	res, _ := interp.Run(f, nil, nil, nil, 0)
	if interp.F(res.Ret) != 3.75 {
		t.Fatalf("fmul folded wrong: %v", interp.F(res.Ret))
	}
}

func TestSimplifyCFGMergesChains(t *testing.T) {
	src := `func @f(i64) {
entry:
  r2 = add r1, r1
  br %mid
mid:
  r3 = mul r2, r2
  br %end
end:
  ret r3
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	if removed := SimplifyCFG(f); removed != 2 {
		t.Fatalf("removed %d blocks, want 2", removed)
	}
	if len(f.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(f.Blocks))
	}
	res, _ := interp.Run(f, []uint64{interp.IBits(3)}, nil, nil, 0)
	if interp.I(res.Ret) != 36 {
		t.Fatalf("semantics broken: %d", interp.I(res.Ret))
	}
}

func TestSimplifyCFGDropsUnreachable(t *testing.T) {
	src := `func @f(i64) {
entry:
  ret r1
dead:
  r2 = add r1, r1
  br %dead2
dead2:
  ret r2
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	SimplifyCFG(f)
	if len(f.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(f.Blocks))
	}
}

func TestOptimizePipelinePreservesSemantics(t *testing.T) {
	f := parseMain(t)
	inlined, err := InlineAll(f)
	if err != nil {
		t.Fatal(err)
	}
	before, err := interp.Run(inlined, []uint64{interp.IBits(10), interp.IBits(4)}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(inlined)
	if err := ir.Verify(inlined); err != nil {
		t.Fatalf("optimized IR invalid: %v", err)
	}
	if err := analysis.VerifySSA(inlined); err != nil {
		t.Fatalf("optimized SSA invalid: %v", err)
	}
	after, err := interp.Run(inlined, []uint64{interp.IBits(10), interp.IBits(4)}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if before.Ret != after.Ret {
		t.Fatalf("Optimize changed the result: %d -> %d", interp.I(before.Ret), interp.I(after.Ret))
	}
	if after.Steps >= before.Steps {
		t.Fatalf("Optimize did not shrink execution: %d -> %d steps", before.Steps, after.Steps)
	}
}

func TestInlinedFunctionProfilesCleanly(t *testing.T) {
	// The real purpose of inlining: Ball-Larus profiling over the whole
	// (formerly inter-procedural) flow. The inlined main must profile and
	// its path count must reflect the absdiff branch.
	f := parseMain(t)
	inlined, err := InlineAll(f)
	if err != nil {
		t.Fatal(err)
	}
	// Inline-produced CFGs profile after simplification too.
	Optimize(inlined)
	fp, err := profile.CollectFunction(nil, inlined, []uint64{interp.IBits(9), interp.IBits(2)}, nil, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fp.NumExecutedPaths() < 1 {
		t.Fatal("no paths recorded")
	}
	// The absdiff branch makes (9,2) take the gt path; (2,9) the le path:
	// two distinct Ball-Larus paths across inputs.
	fp2, err := profile.CollectFunction(nil, inlined, []uint64{interp.IBits(2), interp.IBits(9)}, nil, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fp.HottestPath().ID == fp2.HottestPath().ID {
		t.Fatal("expected different paths for opposite absdiff outcomes")
	}
}

func TestLocalCSE(t *testing.T) {
	src := `func @f(i64, i64) {
entry:
  r3 = add r1, r2
  r4 = add r1, r2
  r5 = mul r3, r4
  r6 = add r1, r2
  r7 = add r5, r6
  ret r7
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := interp.Run(f, []uint64{interp.IBits(6), interp.IBits(7)}, nil, nil, 0)
	if removed := LocalCSE(f); removed != 2 {
		t.Fatalf("removed %d duplicates, want 2", removed)
	}
	if err := analysis.VerifySSA(f); err != nil {
		t.Fatalf("CSE broke SSA: %v", err)
	}
	after, err := interp.Run(f, []uint64{interp.IBits(6), interp.IBits(7)}, nil, nil, 0)
	if err != nil || after.Ret != before.Ret {
		t.Fatalf("CSE changed semantics: %v vs %v (%v)", after.Ret, before.Ret, err)
	}
	if after.Steps >= before.Steps {
		t.Fatal("CSE did not shorten execution")
	}
}

func TestLocalCSEKeepsImpureOps(t *testing.T) {
	src := `func @f(i64) {
entry:
  r2 = load.i64 r1
  r3 = load.i64 r1
  r4 = add r2, r3
  ret r4
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	// Loads may see different values (stores between them elsewhere): never
	// merged by the local pass.
	if removed := LocalCSE(f); removed != 0 {
		t.Fatalf("CSE merged loads: %d", removed)
	}
}

func TestLocalCSECrossBlockUses(t *testing.T) {
	src := `func @f(i64) {
entry:
  r2 = add r1, r1
  r3 = add r1, r1
  r4 = cmp.gt r2, r1
  condbr r4, %a, %b
a:
  r5 = mul r3, r2
  ret r5
b:
  ret r3
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := interp.Run(f, []uint64{interp.IBits(5)}, nil, nil, 0)
	if removed := LocalCSE(f); removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if err := analysis.VerifySSA(f); err != nil {
		t.Fatalf("cross-block rewrite broke SSA: %v", err)
	}
	after, _ := interp.Run(f, []uint64{interp.IBits(5)}, nil, nil, 0)
	if after.Ret != before.Ret {
		t.Fatal("cross-block CSE changed semantics")
	}
}
