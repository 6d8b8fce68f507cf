package analysis

import (
	"math"
	"testing"

	"needle/internal/ir"
)

// --- SCCP ---

func TestSCCPFoldsThroughConstantBranch(t *testing.T) {
	f := parse(t, `func @f(i64) {
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
	s := ComputeSCCP(f)
	// The branch condition is the constant 1: right is unreachable, and the
	// phi sees only the left incoming, so it is the constant 20 — the fact
	// a pessimistic (non-conditional) propagator cannot prove.
	if v := s.Value(6); !v.IsConst() || int64(v.Bits) != 20 {
		t.Fatalf("phi value = %+v, want const 20", v)
	}
	var right *ir.Block
	for _, b := range f.Blocks {
		if b.Name == "right" {
			right = b
		}
	}
	if s.BlockExecutable(right) {
		t.Fatal("right must be non-executable behind a constant-true branch")
	}
	if taken, ok := s.ConstBranch(f.Entry()); !ok || taken != 0 {
		t.Fatalf("ConstBranch(entry) = %d, %v; want 0, true", taken, ok)
	}
}

func TestSCCPParamsAndLoadsAreBottom(t *testing.T) {
	f := parse(t, `func @f(i64) {
entry:
  r2 = load.i64 r1
  r3 = add r1, r2
  ret r3
}`)
	s := ComputeSCCP(f)
	for _, r := range []ir.Reg{1, 2, 3} {
		if v := s.Value(r); v.State != LatBottom {
			t.Fatalf("r%d = %v, want bottom", r, v.State)
		}
	}
}

func TestSCCPDivByConstZeroIsBottom(t *testing.T) {
	f := parse(t, `func @f() {
entry:
  r1 = const.i64 7
  r2 = const.i64 0
  r3 = div r1, r2
  r4 = rem r1, r2
  ret r3
}`)
	s := ComputeSCCP(f)
	// The interpreter traps here; SCCP must not claim a constant that a
	// folder would then use to erase the trap.
	if v := s.Value(3); v.State != LatBottom {
		t.Fatalf("div by const zero = %v, want bottom", v.State)
	}
	if v := s.Value(4); v.State != LatBottom {
		t.Fatalf("rem by const zero = %v, want bottom", v.State)
	}
}

func TestSCCPLoopInvariantStaysConstant(t *testing.T) {
	f := parse(t, `func @f(i64) {
entry:
  r2 = const.i64 5
  br %head
head:
  r3 = phi.i64 [entry: r2] [body: r3]
  r4 = cmp.lt r3, r1
  condbr r4, %body, %exit
body:
  br %head
exit:
  ret r3
}`)
	s := ComputeSCCP(f)
	if v := s.Value(3); !v.IsConst() || int64(v.Bits) != 5 {
		t.Fatalf("loop-invariant phi = %+v, want const 5", v)
	}
}

func TestSCCPFloatConstants(t *testing.T) {
	f := parse(t, `func @f() {
entry:
  r1 = const.f64 2.5
  r2 = const.f64 1.5
  r3 = fadd r1, r2
  r4 = fptosi r3
  ret r4
}`)
	s := ComputeSCCP(f)
	if v := s.Value(3); !v.IsConst() || math.Float64frombits(v.Bits) != 4.0 {
		t.Fatalf("fadd = %+v, want const 4.0", v)
	}
	if v := s.Value(4); !v.IsConst() || int64(v.Bits) != 4 {
		t.Fatalf("fptosi = %+v, want const 4", v)
	}
}

func TestDeriveDeadCode(t *testing.T) {
	f := parse(t, `func @f(i64) {
entry:
  r2 = const.i64 0
  r3 = const.i64 3
  r4 = mul r3, r3
  r5 = add r1, r1
  condbr r2, %dead, %live
dead:
  r6 = add r1, r3
  br %live
live:
  ret r4
}`)
	s := ComputeSCCP(f)
	facts := DeriveDeadCode(f, s)
	if len(facts.UnreachableBlocks) != 1 || facts.UnreachableBlocks[0].Name != "dead" {
		t.Fatalf("unreachable = %v, want [dead]", facts.UnreachableBlocks)
	}
	// r5 is a pure def nothing reads.
	foundDead := false
	for _, in := range facts.DeadDefs {
		if in.Dst == 5 {
			foundDead = true
		}
	}
	if !foundDead {
		t.Fatalf("dead defs %v missing r5", facts.DeadDefs)
	}
	// r4 = mul of constants is foldable.
	foundFold := false
	for _, in := range facts.Foldable {
		if in.Dst == 4 {
			foundFold = true
		}
	}
	if !foundFold {
		t.Fatalf("foldable %v missing r4", facts.Foldable)
	}
}

// --- value ranges ---

func TestRangesLoopCounterWidens(t *testing.T) {
	f := parse(t, loopSrc)
	rg := ComputeRanges(f, Dominators(f))
	// r3 starts at 0 and grows by a param-sized stride: the lower bound is
	// provable, the upper is widened away.
	iv := rg.At(3)
	if iv.Hi != math.MaxInt64 {
		t.Fatalf("loop counter Hi = %d, want widened to MaxInt64", iv.Hi)
	}
}

func TestRangesConstAndMask(t *testing.T) {
	f := parse(t, `func @f(i64) {
entry:
  r2 = const.i64 255
  r3 = and r1, r2
  r4 = const.i64 7
  r5 = add r3, r4
  r6 = rem r1, r2
  ret r5
}`)
	rg := ComputeRanges(f, Dominators(f))
	if iv := rg.At(2); iv != (Interval{255, 255}) {
		t.Fatalf("const range = %+v", iv)
	}
	if iv := rg.At(3); iv != (Interval{0, 255}) {
		t.Fatalf("and-mask range = %+v, want [0,255]", iv)
	}
	if iv := rg.At(5); iv != (Interval{7, 262}) {
		t.Fatalf("add range = %+v, want [7,262]", iv)
	}
	if iv := rg.At(6); iv != (Interval{-254, 254}) {
		t.Fatalf("rem range = %+v, want [-254,254]", iv)
	}
}

func TestRangesBoundedLoopViaCmp(t *testing.T) {
	// Widening is deliberately simple (no narrowing pass): a counted loop's
	// index widens to +inf rather than the loop bound, but a provable lower
	// bound (start 0, constant positive stride) survives. This pins the
	// policy so the vet OOB check's "finite bounds only" rule stays honest.
	f := parse(t, `func @f(i64) {
entry:
  r2 = const.i64 0
  r3 = const.i64 1
  br %head
head:
  r4 = phi.i64 [entry: r2] [body: r5]
  r6 = cmp.lt r4, r1
  condbr r6, %body, %exit
body:
  r5 = add r4, r3
  br %head
exit:
  ret r4
}`)
	rg := ComputeRanges(f, Dominators(f))
	iv := rg.At(4)
	if iv.Lo != 0 {
		t.Fatalf("counter Lo = %d, want 0 (provable)", iv.Lo)
	}
	if iv.Hi != math.MaxInt64 {
		t.Fatalf("counter Hi = %d, want widened", iv.Hi)
	}
}

func TestRangesTerminatesOnIrreducibleCFG(t *testing.T) {
	// Two blocks jumping into each other's middle — legal, verifies, and has
	// no single loop header for the widening policy to anchor on. The pass
	// cap plus widen-all fallback must still converge.
	f := parse(t, `func @f(i64) {
entry:
  r2 = const.i64 0
  r3 = const.i64 1
  condbr r1, %a, %b
a:
  r4 = phi.i64 [entry: r2] [b: r6]
  r5 = add r4, r3
  condbr r5, %b, %exit
b:
  r6 = phi.i64 [entry: r3] [a: r5]
  br %a
exit:
  ret r5
}`)
	rg := ComputeRanges(f, Dominators(f))
	if iv := rg.At(5); iv.IsFull() {
		return // widened to full: fine
	}
	// Any result is acceptable as long as ComputeRanges returned at all;
	// reaching here means it converged to something finite, also fine.
	_ = rg
}

// --- memory dependence ---

func TestMemDepClassify(t *testing.T) {
	f := parse(t, `func @f(i64, i64) {
entry:
  r3 = const.i64 1
  r4 = const.i64 2
  r5 = add r1, r3
  r6 = add r1, r4
  r7 = add r1, r3
  r8 = add r1, r2
  r9 = load.i64 r5
  store.i64 r9, r6
  ret r9
}`)
	md := ComputeMemDep(f)
	if c := md.ClassifyRegs(5, 7); c != MustAlias {
		t.Fatalf("r1+1 vs r1+1 = %v, want must", c)
	}
	if c := md.ClassifyRegs(5, 6); c != NoAlias {
		t.Fatalf("r1+1 vs r1+2 = %v, want no", c)
	}
	if c := md.ClassifyRegs(5, 8); c != MayAlias {
		t.Fatalf("r1+1 vs r1+r2 = %v, want may", c)
	}
	// Constant addresses classify by offset alone.
	if c := Classify(AddrForm{Offset: 4}, AddrForm{Offset: 4}); c != MustAlias {
		t.Fatalf("const 4 vs 4 = %v, want must", c)
	}
	if c := Classify(AddrForm{Offset: 4}, AddrForm{Offset: 5}); c != NoAlias {
		t.Fatalf("const 4 vs 5 = %v, want no", c)
	}
}

func TestMemDepCommutativeBases(t *testing.T) {
	f := parse(t, `func @f(i64, i64) {
entry:
  r3 = add r1, r2
  r4 = add r2, r1
  r5 = load.i64 r3
  store.i64 r5, r4
  ret r5
}`)
	md := ComputeMemDep(f)
	if c := md.ClassifyRegs(3, 4); c != MustAlias {
		t.Fatalf("r1+r2 vs r2+r1 = %v, want must (sorted base multiset)", c)
	}
}

func TestMemDepLoadDerived(t *testing.T) {
	f := parse(t, `func @f(i64) {
entry:
  r2 = load.i64 r1
  r3 = const.i64 4
  r4 = add r2, r3
  r5 = add r1, r3
  store.i64 r3, r4
  ret r2
}`)
	md := ComputeMemDep(f)
	if !md.LoadDerived(4) {
		t.Fatal("r4 (load + const) must be load-derived")
	}
	if md.LoadDerived(5) {
		t.Fatal("r5 (param + const) must not be load-derived")
	}
}

func TestMemDepLoadDerivedThroughPhi(t *testing.T) {
	f := parse(t, loopChaseSrc)
	md := ComputeMemDep(f)
	if !md.LoadDerived(3) {
		t.Fatal("pointer-chasing phi must be load-derived")
	}
}

// loopChaseSrc walks a linked structure: the next address is loaded from
// memory, the canonical self-aliasing pattern.
const loopChaseSrc = `func @chase(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r1] [body: r4]
  r4 = load.i64 r3
  r5 = cmp.ne r4, r2
  condbr r5, %body, %exit
body:
  br %head
exit:
  ret r3
}
`
