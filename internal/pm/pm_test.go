package pm_test

import (
	"reflect"
	"testing"

	"needle/internal/analysis"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/obs"
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
	loops1, loops2 := am.NaturalLoops(f), am.NaturalLoops(f)
	if len(loops1) != 1 || &loops1[0] != &loops2[0] {
		t.Errorf("NaturalLoops returned distinct slices (len %d)", len(loops1))
	}
	cd1, cd2 := am.ControlDependents(f), am.ControlDependents(f)
	if reflect.ValueOf(cd1).Pointer() != reflect.ValueOf(cd2).Pointer() {
		t.Errorf("ControlDependents returned distinct tables")
	}

	st := am.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
}

// TestExecPlanCaching checks the compiled execution plan's cache contract:
// a plan of the requested function, with identity on repeated queries.
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
}

// TestComputedCountsPerKind: each analysis is computed once per function
// however often it is requested, and an analysis computed as another's
// input (dominators under loops) counts as that kind's one computation.
func TestComputedCountsPerKind(t *testing.T) {
	f, g := parse(t, loopSrc), parse(t, loopSrc)
	am := pm.NewManager()
	for i := 0; i < 3; i++ {
		am.NaturalLoops(f)
		am.Dominators(f)
		am.Liveness(f)
		am.Liveness(g)
	}
	st := am.Stats()
	want := map[pm.Kind]uint64{pm.KindDominators: 1, pm.KindLoops: 1, pm.KindLiveness: 2}
	var sum uint64
	for k, n := range st.Computed {
		sum += n
		if n != want[pm.Kind(k)] {
			t.Errorf("%v computed %d times, want %d", pm.Kind(k), n, want[pm.Kind(k)])
		}
	}
	if sum != st.Misses {
		t.Errorf("per-kind computations sum to %d, misses = %d", sum, st.Misses)
	}
}

// TestWithSpanSharesCache: a span handle serves and fills the same cache
// as the manager it came from, and the manager itself stays span-free.
func TestWithSpanSharesCache(t *testing.T) {
	f := parse(t, loopSrc)
	am := pm.NewManager()
	var reg obs.Registry
	reg.Enable()
	sp := reg.Start("run")
	h := am.WithSpan(sp)
	if h.Span() != sp || am.Span() != nil {
		t.Fatalf("spans: handle %p (want %p), manager %p (want nil)", h.Span(), sp, am.Span())
	}
	if h.Dominators(f) != am.Dominators(f) {
		t.Error("handle and manager cache different dominator trees")
	}
	if st := am.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats not shared: %+v", st)
	}
}

// TestLivenessMatchesFreshOnRandomCFGs is the irgen property test: across
// hundreds of random structured CFGs, the manager's cached liveness must
// agree exactly with a freshly computed one.
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

	}
}
