package analysis

import (
	"testing"

	"needle/internal/ir"
)

// parse builds a function from source, failing the test on error.
func parse(t testing.TB, src string) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatalf("ParseFunction: %v", err)
	}
	return f
}

const diamondSrc = `func @diamond(i64) {
entry:
  r2 = const.i64 0
  r3 = cmp.lt r1, r2
  condbr r3, %left, %right
left:
  r4 = add r1, r1
  br %join
right:
  r5 = mul r1, r1
  br %join
join:
  r6 = phi.i64 [left: r4] [right: r5]
  ret r6
}
`

const loopSrc = `func @loop(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [body: r5]
  r4 = cmp.lt r3, r1
  condbr r4, %body, %exit
body:
  r5 = add r3, r1
  br %head
exit:
  ret r3
}
`

func TestReversePostorderDiamond(t *testing.T) {
	f := parse(t, diamondSrc)
	rpo := ReversePostorder(f)
	if len(rpo) != 4 {
		t.Fatalf("rpo length = %d, want 4", len(rpo))
	}
	if rpo[0].Name != "entry" || rpo[3].Name != "join" {
		t.Fatalf("rpo order wrong: %v", rpo)
	}
}

func TestReversePostorderSkipsUnreachable(t *testing.T) {
	src := `func @f() {
entry:
  ret
dead:
  br %dead
}
`
	f := parse(t, src)
	rpo := ReversePostorder(f)
	if len(rpo) != 1 || rpo[0].Name != "entry" {
		t.Fatalf("rpo = %v, want [entry]", rpo)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	f := parse(t, diamondSrc)
	dom := Dominators(f)
	entry := f.BlockByName("entry")
	left := f.BlockByName("left")
	right := f.BlockByName("right")
	join := f.BlockByName("join")

	if dom.Idom(entry) != nil {
		t.Error("entry should have no idom")
	}
	if dom.Idom(left) != entry || dom.Idom(right) != entry {
		t.Error("left/right idom should be entry")
	}
	if dom.Idom(join) != entry {
		t.Errorf("join idom = %v, want entry", dom.Idom(join))
	}
	if !dom.Dominates(entry, join) || dom.Dominates(left, join) {
		t.Error("Dominates wrong on diamond")
	}
	if !dom.Dominates(join, join) {
		t.Error("Dominates should be reflexive")
	}
}

func TestBackEdgesAndLoops(t *testing.T) {
	f := parse(t, loopSrc)
	dom := Dominators(f)
	back := BackEdges(f, dom)
	if len(back) != 1 {
		t.Fatalf("back edges = %d, want 1", len(back))
	}
	if back[0].From.Name != "body" || back[0].To.Name != "head" {
		t.Fatalf("back edge = %s->%s", back[0].From, back[0].To)
	}
	loops := NaturalLoops(f, dom)
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	l := loops[0]
	if l.Header.Name != "head" {
		t.Fatalf("loop header = %s", l.Header)
	}
	if !l.Contains(f.BlockByName("body")) || l.Contains(f.BlockByName("exit")) {
		t.Fatal("loop membership wrong")
	}
}

func TestNestedLoops(t *testing.T) {
	src := `func @nest(i64) {
entry:
  r2 = const.i64 0
  br %outer
outer:
  r3 = phi.i64 [entry: r2] [olatch: r8]
  r4 = cmp.lt r3, r1
  condbr r4, %inner, %exit
inner:
  r5 = phi.i64 [outer: r2] [inner: r6]
  r6 = add r5, r3
  r7 = cmp.lt r6, r1
  condbr r7, %inner, %olatch
olatch:
  r8 = add r3, r6
  br %outer
exit:
  ret r3
}
`
	f := parse(t, src)
	dom := Dominators(f)
	loops := NaturalLoops(f, dom)
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	var outer, inner *Loop
	for _, l := range loops {
		switch l.Header.Name {
		case "outer":
			outer = l
		case "inner":
			inner = l
		}
	}
	if outer == nil || inner == nil {
		t.Fatal("missing loop headers")
	}
	if !outer.Contains(f.BlockByName("inner")) {
		t.Error("outer loop should contain inner block")
	}
	if inner.Contains(f.BlockByName("olatch")) {
		t.Error("inner loop should not contain olatch")
	}
}

func TestLivenessDiamond(t *testing.T) {
	f := parse(t, diamondSrc)
	lv := ComputeLiveness(f)
	left := f.BlockByName("left")
	join := f.BlockByName("join")
	// r1 (param) is live into left; r4 is live out of left (phi operand).
	if !lv.In[left.Index].Has(1) {
		t.Error("r1 should be live-in to left")
	}
	if !lv.Out[left.Index].Has(4) {
		t.Error("r4 should be live-out of left (phi use)")
	}
	// Phi operands are not live-in to the join block itself.
	if lv.In[join.Index].Has(4) || lv.In[join.Index].Has(5) {
		t.Error("phi operands must not be live-in to the phi block")
	}
}

func TestLivenessLoop(t *testing.T) {
	f := parse(t, loopSrc)
	lv := ComputeLiveness(f)
	body := f.BlockByName("body")
	head := f.BlockByName("head")
	if !lv.In[body.Index].Has(3) || !lv.In[body.Index].Has(1) {
		t.Error("r3 and r1 should be live into body")
	}
	if !lv.Out[body.Index].Has(5) {
		t.Error("r5 should be live out of body (loop phi)")
	}
	if !lv.In[head.Index].Has(1) {
		t.Error("r1 should be live into head")
	}
}

func TestDefBlock(t *testing.T) {
	f := parse(t, diamondSrc)
	defs := DefBlock(f)
	if defs[1] != nil {
		t.Error("parameter should have nil def block")
	}
	if defs[4] == nil || defs[4].Name != "left" {
		t.Errorf("r4 def block = %v, want left", defs[4])
	}
	if defs[6] == nil || defs[6].Name != "join" {
		t.Errorf("r6 def block = %v, want join", defs[6])
	}
}

func TestVerifySSAAcceptsValid(t *testing.T) {
	for _, src := range []string{diamondSrc, loopSrc} {
		f := parse(t, src)
		if err := VerifySSA(f); err != nil {
			t.Errorf("VerifySSA rejected valid function: %v", err)
		}
	}
}

func TestVerifySSARejectsNonDominatedUse(t *testing.T) {
	// r4 defined in left but used in right: not dominated.
	src := `func @bad(i64) {
entry:
  r2 = const.i64 0
  r3 = cmp.lt r1, r2
  condbr r3, %left, %right
left:
  r4 = add r1, r1
  br %join
right:
  r5 = mul r4, r1
  br %join
join:
  r6 = phi.i64 [left: r4] [right: r5]
  ret r6
}
`
	f := parse(t, src)
	if err := VerifySSA(f); err == nil {
		t.Fatal("VerifySSA accepted non-dominated use")
	}
}

func TestVerifySSARejectsBadPhiOperand(t *testing.T) {
	// Phi operand r5 comes "from left" but is defined in right.
	src := `func @bad(i64) {
entry:
  r2 = const.i64 0
  r3 = cmp.lt r1, r2
  condbr r3, %left, %right
left:
  r4 = add r1, r1
  br %join
right:
  r5 = mul r1, r1
  br %join
join:
  r6 = phi.i64 [left: r5] [right: r4]
  ret r6
}
`
	f := parse(t, src)
	if err := VerifySSA(f); err == nil {
		t.Fatal("VerifySSA accepted phi operand not dominating its edge")
	}
}

func TestPostDominatorsDiamond(t *testing.T) {
	f := parse(t, diamondSrc)
	pdom := PostDominators(f)
	entry := f.BlockByName("entry")
	left := f.BlockByName("left")
	right := f.BlockByName("right")
	join := f.BlockByName("join")

	if !pdom.PostDominates(join, entry) || !pdom.PostDominates(join, left) {
		t.Error("join should post-dominate entry and left")
	}
	if pdom.PostDominates(left, entry) {
		t.Error("left must not post-dominate entry")
	}
	if pdom.Ipdom(left) != join || pdom.Ipdom(right) != join {
		t.Error("ipdom of branch sides should be join")
	}
	if pdom.Ipdom(join) != nil {
		t.Error("returning block should post-dominate to the virtual exit")
	}
}

func TestPostDominatorsLoop(t *testing.T) {
	f := parse(t, loopSrc)
	pdom := PostDominators(f)
	head := f.BlockByName("head")
	body := f.BlockByName("body")
	exit := f.BlockByName("exit")
	if !pdom.PostDominates(exit, head) || !pdom.PostDominates(head, body) {
		t.Error("loop post-dominance wrong")
	}
	if pdom.PostDominates(body, head) {
		t.Error("body must not post-dominate head (the loop may exit)")
	}
}

func TestControlDependents(t *testing.T) {
	f := parse(t, diamondSrc)
	pdom := PostDominators(f)
	deps := ControlDependents(f, pdom)
	entry := f.BlockByName("entry")
	got := deps.Of(entry)
	if len(got) != 2 {
		t.Fatalf("entry controls %v, want left and right", got)
	}
	names := map[string]bool{}
	for _, b := range got {
		names[b.Name] = true
	}
	if !names["left"] || !names["right"] {
		t.Fatalf("entry controls %v, want left+right", names)
	}
}

func TestControlDependentsLoop(t *testing.T) {
	f := parse(t, loopSrc)
	pdom := PostDominators(f)
	deps := ControlDependents(f, pdom)
	head := f.BlockByName("head")
	// body is control dependent on head's branch; head itself is too (the
	// back edge makes head's next iteration contingent on the branch).
	names := map[string]bool{}
	for _, b := range deps.Of(head) {
		names[b.Name] = true
	}
	if !names["body"] {
		t.Fatalf("head controls %v, want body included", names)
	}
}
