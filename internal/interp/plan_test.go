package interp

import (
	"errors"
	"reflect"
	"testing"

	"needle/internal/ir"
)

// TestStepLimitExactAtEveryInstruction pins the step budget to every
// position of the dynamic stream in turn: execution must stop with
// ErrStepLimit exactly one instruction past the budget no matter what kind
// of instruction the limit lands on. Phis count as instructions, so a limit
// landing mid-phi-sequence must trip there, not at the next body check.
func TestStepLimitExactAtEveryInstruction(t *testing.T) {
	f := buildSumLoop(t)
	full, err := Run(f, []uint64{IBits(5)}, nil, nil, 0)
	if err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
	for limit := int64(1); limit < full.Steps; limit++ {
		res, err := Run(f, []uint64{IBits(5)}, nil, nil, limit)
		if !errors.Is(err, ErrStepLimit) {
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
	p := BuildPlan(f)
	if p.err != nil {
		t.Fatalf("sum loop plan: %v", p.err)
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

// runPlan runs f's plan with a Ball-Larus overlay that numbers every path 0:
// enough to compare results, steps, errors and memory with Run.
func runPlan(f *ir.Function, args, mem []uint64, opts PlanOpts) (Result, error) {
	p := BuildPlan(f)
	bl := &BLPlan{NumPaths: 1, Succs: make([][2]BLEdge, len(f.Blocks)), RetVal: make([]int64, len(f.Blocks))}
	return RunProfiled(p, bl, args, mem, NewPathState(p, 1, false), opts)
}

func parseModule(t *testing.T, src string) *ir.Module {
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

// TestPlanCallsMatchRun: a plan whose body calls another function runs the
// callee within the caller's step budget, so at every step limit — before,
// inside and after each call — the result, step count, error text and
// memory equal Run's.
func TestPlanCallsMatchRun(t *testing.T) {
	f := parseModule(t, callSrc).Func("main")
	if !BuildPlan(f).calls {
		t.Fatal("main's plan does not record its call")
	}
	newMem := func() []uint64 { return []uint64{1, 2, 3, 4, 5, 6} }
	args := []uint64{IBits(6)}
	full, err := Run(f, args, newMem(), nil, 0)
	if err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
	for limit := int64(0); limit <= full.Steps+1; limit++ {
		memH, memP := newMem(), newMem()
		resH, errH := Run(f, args, memH, nil, limit)
		resP, errP := runPlan(f, args, memP, PlanOpts{MaxSteps: limit})
		if resP != resH || errText(errP) != errText(errH) {
			t.Fatalf("limit %d: plan %+v, %v; Run %+v, %v", limit, resP, errP, resH, errH)
		}
		if !reflect.DeepEqual(memP, memH) {
			t.Fatalf("limit %d: memory plan %v, Run %v", limit, memP, memH)
		}
	}
}

// TestPlanTimedCallRefused: callees run unprofiled, so a timed run of a plan
// with calls returns ErrTimedCall instead of a partial feed.
func TestPlanTimedCallRefused(t *testing.T) {
	f := parseModule(t, callSrc).Func("main")
	res, err := runPlan(f, []uint64{IBits(2)}, make([]uint64, 4), PlanOpts{Timing: nopTiming{}})
	if !errors.Is(err, ErrTimedCall) || res.Steps != 0 {
		t.Errorf("timed run: %+v, %v; want ErrTimedCall before the first step", res, err)
	}
}

type nopTiming struct{}

func (nopTiming) FeedBlock(*TimingPacket, int, []int64) {}
func (nopTiming) NoteBranch(bool)                       {}
func (nopTiming) EndPath(int64)                         {}

// TestPlanEntryPhiError: phis in the entry block make every run fail with
// the hook interpreter's exact error, before the first step.
func TestPlanEntryPhiError(t *testing.T) {
	f := parseModule(t, `func @ep(i64) {
entry:
  r2 = phi.i64 [loop: r3]
  br %loop
loop:
  r3 = add r1, r1
  condbr r3, %entry, %exit
exit:
  ret r3
}
`).Func("ep")
	const want = "interp: ep.entry: phi r2 has no incoming edge from <nil>"
	resH, errH := Run(f, []uint64{1}, nil, nil, 0)
	resP, errP := runPlan(f, []uint64{1}, nil, PlanOpts{})
	if errText(errH) != want || errText(errP) != want || resH.Steps != 0 || resP.Steps != 0 {
		t.Fatalf("Run %+v, %v; plan %+v, %v; want %q at step 0", resH, errH, resP, errP, want)
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
		if _, err := runPlan(f, nil, nil, PlanOpts{}); errText(err) != p.err.Error() {
			t.Errorf("%s: run returned %v, want %v", name, err, p.err)
		}
	}
}
