package pm_test

import (
	"reflect"
	"testing"

	"needle/internal/analysis"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/passes"
	"needle/internal/pm"
)

func parse(t testing.TB, src string) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatalf("ParseFunction: %v", err)
	}
	return f
}

// loopSrc exercises every analysis kind: a loop (back edge, natural loop)
// containing a diamond (branch, control dependence, phi).
const loopSrc = `func @k(i64) {
entry:
  r2 = const.i64 0
  r3 = const.i64 1
  br %head
head:
  r4 = phi.i64 [entry: r2] [latch: r7]
  r5 = cmp.lt r4, r1
  condbr r5, %body, %exit
body:
  r6 = cmp.lt r4, r3
  condbr r6, %latch, %other
other:
  br %latch
latch:
  r7 = add r4, r3
  br %head
exit:
  ret r4
}
`

func TestCacheHitIdentity(t *testing.T) {
	f := parse(t, loopSrc)
	am := pm.NewManager()

	dom1, dom2 := am.Dominators(f), am.Dominators(f)
	if dom1 != dom2 {
		t.Errorf("Dominators returned distinct pointers: %p vs %p", dom1, dom2)
	}
	pdom1, pdom2 := am.PostDominators(f), am.PostDominators(f)
	if pdom1 != pdom2 {
		t.Errorf("PostDominators returned distinct pointers: %p vs %p", pdom1, pdom2)
	}
	lv1, lv2 := am.Liveness(f), am.Liveness(f)
	if lv1 != lv2 {
		t.Errorf("Liveness returned distinct pointers: %p vs %p", lv1, lv2)
	}
	rpo1, rpo2 := am.RPO(f), am.RPO(f)
	if len(rpo1) == 0 || &rpo1[0] != &rpo2[0] {
		t.Errorf("RPO returned distinct slices")
	}
	loops1, loops2 := am.NaturalLoops(f), am.NaturalLoops(f)
	if len(loops1) != 1 || &loops1[0] != &loops2[0] {
		t.Errorf("NaturalLoops returned distinct slices (len %d)", len(loops1))
	}
	cd1, cd2 := am.ControlDependents(f), am.ControlDependents(f)
	if reflect.ValueOf(cd1).Pointer() != reflect.ValueOf(cd2).Pointer() {
		t.Errorf("ControlDependents returned distinct maps")
	}
	db1, db2 := am.DefBlocks(f), am.DefBlocks(f)
	if len(db1) == 0 || &db1[0] != &db2[0] {
		t.Errorf("DefBlocks returned distinct slices")
	}

	st := am.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}

	// Full invalidation forces recomputation.
	am.Invalidate(f)
	if dom3 := am.Dominators(f); dom3 == dom1 {
		t.Errorf("Dominators survived Invalidate")
	}
	if am.Stats().Invalidations == 0 {
		t.Errorf("Invalidate not counted")
	}
}

// TestExecPlanCaching checks the compiled execution plan's cache contract:
// identity on repeated queries, survival only under PreserveAll (an
// instruction rewrite changes the flattened bodies even when the CFG is
// untouched, so PreserveCFG must drop it), and recomputation afterwards.
func TestExecPlanCaching(t *testing.T) {
	f := parse(t, loopSrc)
	am := pm.NewManager()

	p1 := am.ExecPlan(f)
	if p1.F() != f {
		t.Fatal("ExecPlan returned a plan for another function")
	}
	if p2 := am.ExecPlan(f); p2 != p1 {
		t.Errorf("ExecPlan returned distinct pointers: %p vs %p", p1, p2)
	}

	am.InvalidateExcept(f, pm.PreserveAll())
	if p2 := am.ExecPlan(f); p2 != p1 {
		t.Errorf("PreserveAll dropped the execution plan")
	}

	am.InvalidateExcept(f, pm.PreserveCFG())
	if p2 := am.ExecPlan(f); p2 == p1 {
		t.Errorf("PreserveCFG kept a stale execution plan")
	}

	p1 = am.ExecPlan(f)
	am.Invalidate(f)
	if p2 := am.ExecPlan(f); p2 == p1 {
		t.Errorf("Invalidate kept a stale execution plan")
	}
}

func TestInvalidateExcept(t *testing.T) {
	f := parse(t, loopSrc)
	am := pm.NewManager()
	dom := am.Dominators(f)
	lv := am.Liveness(f)

	am.InvalidateExcept(f, pm.PreserveCFG())
	if got := am.Dominators(f); got != dom {
		t.Errorf("PreserveCFG dropped the dominator tree")
	}
	if got := am.Liveness(f); got == lv {
		t.Errorf("PreserveCFG kept liveness")
	}

	// PreserveNone behaves like a full invalidation.
	dom = am.Dominators(f)
	am.InvalidateExcept(f, pm.PreserveNone)
	if got := am.Dominators(f); got == dom {
		t.Errorf("PreserveNone kept the dominator tree")
	}
}

// invalidationCase pairs one transform with IR it changes and the
// expectation for the dominator tree after the run.
type invalidationCase struct {
	name     string
	src      string
	pass     func() pm.Pass
	keepsDom bool
}

func invalidationCases() []invalidationCase {
	return []invalidationCase{
		{
			name: "constfold",
			src: `func @cf(i64) {
entry:
  r2 = const.i64 2
  r3 = const.i64 3
  r4 = add r2, r3
  r5 = add r4, r1
  ret r5
}
`,
			pass:     passes.ConstFoldPass,
			keepsDom: true,
		},
		{
			name: "cse",
			src: `func @cse(i64) {
entry:
  r2 = add r1, r1
  r3 = add r1, r1
  r4 = add r2, r3
  ret r4
}
`,
			pass:     passes.CSEPass,
			keepsDom: true,
		},
		{
			name: "dce",
			src: `func @dce(i64) {
entry:
  r2 = add r1, r1
  r3 = mul r1, r1
  ret r2
}
`,
			pass:     passes.DCEPass,
			keepsDom: true,
		},
		{
			name: "simplifycfg",
			src: `func @sc(i64) {
entry:
  br %mid
mid:
  r2 = add r1, r1
  br %tail
tail:
  ret r2
}
`,
			pass:     passes.SimplifyCFGPass,
			keepsDom: false,
		},
	}
}

func TestPassInvalidation(t *testing.T) {
	for _, tc := range invalidationCases() {
		t.Run(tc.name, func(t *testing.T) {
			f := parse(t, tc.src)
			am := pm.NewManager()
			dom := am.Dominators(f)
			lv := am.Liveness(f)

			out, err := pm.NewPassManager(am).Add(tc.pass()).Run(f)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if out != f {
				t.Fatalf("in-place pass returned a different function")
			}
			if got := am.Liveness(f); got == lv {
				t.Errorf("%s: liveness not invalidated", tc.name)
			}
			if got := am.Dominators(f); tc.keepsDom && got != dom {
				t.Errorf("%s: dominator tree dropped despite CFG preservation", tc.name)
			} else if !tc.keepsDom && got == dom {
				t.Errorf("%s: stale dominator tree survived a CFG change", tc.name)
			}
		})
	}
}

func TestInlinePassInvalidatesOldFunction(t *testing.T) {
	m, err := ir.Parse(`func @inc(i64) {
entry:
  r2 = const.i64 1
  r3 = add r1, r2
  ret r3
}

func @main(i64) {
entry:
  r2 = call.i64 @inc r1
  r3 = call.i64 @inc r2
  ret r3
}
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	f := m.Func("main")
	am := pm.NewManager()
	am.Dominators(f) // warm the old function's cache

	out, err := pm.NewPassManager(am).Add(passes.InlinePass(0)).Run(f)
	if err != nil {
		t.Fatalf("inline: %v", err)
	}
	if out == f {
		t.Fatalf("inlining a function with calls should rebuild it")
	}
	if am.Stats().Invalidations == 0 {
		t.Errorf("old function's cache not invalidated after inlining")
	}
	if err := analysis.VerifySSA(out); err != nil {
		t.Fatalf("inlined output invalid: %v", err)
	}
	// The new function's analyses are computed on demand and cached.
	if am.Dominators(out) != am.Dominators(out) {
		t.Errorf("no cache identity for the inlined function")
	}
}

// TestLivenessMatchesFreshOnRandomCFGs is the irgen property test: across
// hundreds of random structured CFGs, the manager's cached liveness must
// agree exactly with a freshly computed one, before and after partial
// invalidation and transform runs.
func TestLivenessMatchesFreshOnRandomCFGs(t *testing.T) {
	const seeds = 300
	cfg := irgen.DefaultConfig()
	for seed := int64(0); seed < seeds; seed++ {
		p := irgen.Generate(seed, cfg)
		am := pm.NewManager()

		got := am.Liveness(p.F)
		want := analysis.ComputeLiveness(p.F)
		if !reflect.DeepEqual(got.In, want.In) || !reflect.DeepEqual(got.Out, want.Out) {
			t.Fatalf("seed %d: cached liveness disagrees with fresh computation", seed)
		}
		if again := am.Liveness(p.F); again != got {
			t.Fatalf("seed %d: cache identity lost", seed)
		}

		// Run the cleanup pipeline through the manager, then re-check: the
		// invalidation discipline must leave no stale liveness behind.
		if _, err := pm.NewPassManager(am).Add(passes.CleanupPasses()...).RunFixedPoint(p.F); err != nil {
			t.Fatalf("seed %d: cleanup: %v", seed, err)
		}
		got = am.Liveness(p.F)
		want = analysis.ComputeLiveness(p.F)
		if !reflect.DeepEqual(got.In, want.In) || !reflect.DeepEqual(got.Out, want.Out) {
			t.Fatalf("seed %d: stale liveness after transforms", seed)
		}
	}
}
