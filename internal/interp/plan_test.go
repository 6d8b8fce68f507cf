package interp

import (
	"testing"

	"needle/internal/ir"
)

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestBuildPlanLinksEachFunctionOnce: BuildPlan compiles each function its
// calls reach once, so a cycle of calls links back to the plans already
// built, the root's included, and only a call target gets a zero overlay.
func TestBuildPlanLinksEachFunctionOnce(t *testing.T) {
	m, err := ir.Parse(`func @even(i64) {
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
  r8 = call.i64 @odd r7
  ret r8
}

func @odd(i64) {
entry:
  r2 = call.i64 @even r1
  ret r2
}

func @leaf(i64) {
entry:
  ret r1
}
`)
	if err != nil {
		t.Fatal(err)
	}
	p := BuildPlan(m.Func("even"))
	if len(p.callees) != 2 || p.callees[0] != p.callees[1] {
		t.Fatalf("even links %d call sites to %v, want both to one plan of odd", len(p.callees), p.callees)
	}
	odd := p.callees[0]
	if odd.f.Name != "odd" || len(odd.callees) != 1 || odd.callees[0] != p {
		t.Fatalf("odd's call does not link back to even's plan")
	}
	if p.zero == nil || odd.zero == nil {
		t.Fatal("a call target has no zero overlay")
	}
	if leaf := BuildPlan(m.Func("leaf")); leaf.callees != nil || leaf.zero != nil {
		t.Fatalf("a call-free plan links %v and holds overlay %v", leaf.callees, leaf.zero)
	}
}

// TestPlanUnverifiedShapes: shapes ir.Verify rejects build a plan that
// records an error instead of panicking, and gets no timing packets.
func TestPlanUnverifiedShapes(t *testing.T) {
	entry := func(instrs ...*ir.Instr) *ir.Function {
		b := &ir.Block{Name: "entry", Instrs: instrs}
		return &ir.Function{Name: "bad", RegType: []ir.Type{ir.I64, ir.I64}, Blocks: []*ir.Block{b}}
	}
	ret := &ir.Instr{Op: ir.OpRet}
	for name, f := range map[string]*ir.Function{
		"no blocks":           {Name: "bad"},
		"missing terminator":  entry(&ir.Instr{Op: ir.OpConst, Dst: 1}),
		"interior terminator": entry(ret, ret),
	} {
		p := BuildPlan(f)
		if p.err == nil {
			t.Errorf("%s: plan recorded no error", name)
			continue
		}
		for i := range p.blocks {
			if p.BlockPacket(i) != nil {
				t.Errorf("%s: block %d has a timing packet", name, i)
			}
		}
		if _, err := Exec(p, nil, nil, 0); errText(err) != p.err.Error() {
			t.Errorf("%s: run returned %v, want %v", name, err, p.err)
		}
	}
}
