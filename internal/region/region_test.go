package region

import (
	"testing"

	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/profile"
)

func parse(t testing.TB, src string) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatalf("ParseFunction: %v", err)
	}
	return f
}

func collect(t testing.TB, f *ir.Function, args ...uint64) *profile.FunctionProfile {
	t.Helper()
	fp, err := profile.CollectFunction(nil, f, args, nil, true, 0)
	if err != nil {
		t.Fatalf("CollectFunction: %v", err)
	}
	return fp
}

// loopDiamondSrc: loop whose body splits into odd/rare multiply vs pass
// through; iterations with i%4==0 take the rare side.
const loopDiamondSrc = `func @ld(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [latch: r9]
  r4 = phi.i64 [entry: r2] [latch: r10]
  r5 = cmp.lt r3, r1
  condbr r5, %body, %exit
body:
  r6 = const.i64 4
  r7 = rem r3, r6
  r8 = cmp.eq r7, r2
  condbr r8, %rare, %latch
rare:
  r11 = mul r4, r6
  br %latch
latch:
  r13 = phi.i64 [body: r4] [rare: r11]
  r10 = add r13, r3
  r14 = const.i64 1
  r9 = add r3, r14
  br %head
exit:
  ret r4
}
`

// alternatingSrc reproduces the Figure 3 scenario: two sequential diamonds
// whose outcomes alternate by iteration parity, so the block sequences
// (b1taken, b2taken) and (b1not, b2not) never execute even though every
// individual edge runs 50% of the time.
const alternatingSrc = `func @alt(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [join2: r9]
  r4 = phi.i64 [entry: r2] [join2: r10]
  r5 = cmp.lt r3, r1
  condbr r5, %d1, %exit
d1:
  r6 = const.i64 2
  r7 = rem r3, r6
  r8 = cmp.eq r7, r2
  r18 = cmp.ne r7, r2
  condbr r8, %t1, %f1
t1:
  r11 = add r4, r6
  br %join1
f1:
  r12 = sub r4, r6
  br %join1
join1:
  r13 = phi.i64 [t1: r11] [f1: r12]
  condbr r18, %t2, %f2
t2:
  r14 = mul r13, r6
  br %join2
f2:
  r15 = add r13, r3
  br %join2
join2:
  r16 = phi.i64 [t2: r14] [f2: r15]
  r10 = add r16, r2
  r17 = const.i64 1
  r9 = add r3, r17
  br %head
exit:
  ret r4
}
`

func TestFromPathRegion(t *testing.T) {
	f := parse(t, loopDiamondSrc)
	fp := collect(t, f, interp.IBits(100))
	hot := fp.HottestPath()
	r := FromPath(f, hot)
	if r.Kind != KindPath {
		t.Fatalf("kind = %v", r.Kind)
	}
	if r.Entry != f.Blocks[hot.Blocks[0]] || r.Exit != f.Blocks[hot.Blocks[len(hot.Blocks)-1]] {
		t.Fatal("entry/exit mismatch")
	}
	if r.NumOps() <= 0 || r.NumBranches() != 2 {
		t.Fatalf("ops=%d branches=%d", r.NumOps(), r.NumBranches())
	}
	// The common iteration path head->body->latch has one phi at latch that
	// cancels (single flow of control).
	if got := r.PhiCancel(); got != 1 {
		t.Fatalf("PhiCancel = %d, want 1", got)
	}
	if cov := r.Coverage(fp); cov <= 0 || cov > 1 {
		t.Fatalf("coverage = %v", cov)
	}
}

func TestLiveValues(t *testing.T) {
	f := parse(t, loopDiamondSrc)
	fp := collect(t, f, interp.IBits(100))
	hot := fp.HottestPath() // iteration path starting at head
	r := FromPath(f, hot)
	var live LiveSets
	r.LiveValues(nil, &live)
	liveIn, liveOut := live.In.Regs(), live.Out.Regs()
	// Live-ins include the loop bound r1 and the phi inputs (r2 consts from
	// entry plus r9/r10 from latch — but r9/r10 are defined inside latch,
	// which is in the region, so the cross-iteration values come in via the
	// entry phis' external incomings only).
	hasParam := false
	for _, reg := range liveIn {
		if reg == 1 {
			hasParam = true
		}
	}
	if !hasParam {
		t.Errorf("live-ins %v missing parameter r1", liveIn)
	}
	if len(liveOut) == 0 {
		t.Error("expected live-outs for loop-carried values")
	}
}

func TestBuildBraids(t *testing.T) {
	f := parse(t, loopDiamondSrc)
	fp := collect(t, f, interp.IBits(100))
	braids := BuildBraids(fp, 0)
	if len(braids) == 0 {
		t.Fatal("no braids built")
	}
	top := braids[0]
	// The two iteration paths (head..latch with and without rare) share
	// entry=head and exit=latch, so they merge.
	if top.MergedPathCount() != 2 {
		t.Fatalf("merged paths = %d, want 2", top.MergedPathCount())
	}
	if top.Entry.Name != "head" || top.Exit.Name != "latch" {
		t.Fatalf("braid entry/exit = %s/%s", top.Entry, top.Exit)
	}
	// Internal diamond (body->rare/latch)... body's branch has both targets
	// in the braid, but latch is the exit so the edge body->latch with exit
	// source rule: body is not the exit, so body's branch targets rare
	// (inside) and latch (inside, not entry) => IF.
	if top.IFs != 1 {
		t.Errorf("IFs = %d, want 1", top.IFs)
	}
	// head's branch: body inside, exit block outside => guard. latch is the
	// exit block: its branch (unconditional br) is not counted.
	if top.Guards != 1 {
		t.Errorf("Guards = %d, want 1", top.Guards)
	}
	// Braid coverage equals the sum of merged path coverage.
	var want float64
	for _, p := range top.Paths {
		want += p.Coverage(fp)
	}
	if got := top.Coverage(fp); got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	// Merging never decreases coverage versus the hottest constituent.
	if top.Coverage(fp) < fp.HottestPath().Coverage(fp) {
		t.Error("braid coverage below hottest path coverage")
	}
}

func TestBraidGuardsFewerThanPathGuards(t *testing.T) {
	f := parse(t, alternatingSrc)
	fp := collect(t, f, interp.IBits(200))
	braids := BuildBraids(fp, 0)
	if len(braids) == 0 {
		t.Fatal("no braids")
	}
	top := braids[0]
	if top.MergedPathCount() < 2 {
		t.Fatalf("merged = %d, want >= 2", top.MergedPathCount())
	}
	pathGuards := 0
	for _, p := range top.Paths {
		pathGuards += p.Branches
	}
	if top.Guards >= pathGuards {
		t.Errorf("braid guards %d not fewer than summed path guards %d", top.Guards, pathGuards)
	}
	if top.IFs == 0 {
		t.Error("merging alternating paths must introduce IFs")
	}
}

func TestBraidBranchMemDeps(t *testing.T) {
	f := parse(t, loopDiamondSrc)
	fp := collect(t, f, interp.IBits(100))
	top := BuildBraids(fp, 0)[0]
	// No memory ops at all in this kernel.
	if got := top.BranchMemDeps(); got != 0 {
		t.Errorf("BranchMemDeps = %d, want 0", got)
	}
}

func TestBuildBraidsMaxPaths(t *testing.T) {
	f := parse(t, alternatingSrc)
	fp := collect(t, f, interp.IBits(200))
	braids := BuildBraids(fp, 1)
	for _, b := range braids {
		if b.MergedPathCount() > 1 {
			t.Fatalf("maxPaths=1 violated: %d", b.MergedPathCount())
		}
	}
}

func TestSuperblockInfeasibleOnAlternatingPaths(t *testing.T) {
	f := parse(t, alternatingSrc)
	fp := collect(t, f, interp.IBits(200))
	hot := fp.HottestPath()
	sb := BuildSuperblock(fp, f.Blocks[hot.Blocks[0]], 0)
	if sb.Feasible {
		t.Errorf("superblock %v should be infeasible on alternating paths", sb.Blocks)
	}
	if sb.HottestPath {
		t.Error("superblock cannot be the hottest path here")
	}
}

func TestSuperblockFeasibleOnBiasedLoop(t *testing.T) {
	f := parse(t, loopDiamondSrc)
	fp := collect(t, f, interp.IBits(100))
	hot := fp.HottestPath()
	sb := BuildSuperblock(fp, f.Blocks[hot.Blocks[0]], 0)
	if !sb.Feasible {
		t.Fatalf("superblock %v should be feasible", sb.Blocks)
	}
	if !sb.HottestPath {
		t.Errorf("superblock %v should match hottest path %v", sb.Blocks, hot.Blocks)
	}
	if sb.Kind != KindSuperblock {
		t.Fatal("wrong kind")
	}
}

func TestSuperblockStopsAtMinBias(t *testing.T) {
	f := parse(t, alternatingSrc)
	fp := collect(t, f, interp.IBits(200))
	sb := BuildSuperblock(fp, f.BlockByName("d1"), 0.9)
	// Both sides of d1's branch run 50/50, so growth stops immediately.
	if len(sb.Blocks) != 1 {
		t.Fatalf("blocks = %v, want just the seed", sb.Blocks)
	}
}

func TestHyperblock(t *testing.T) {
	f := parse(t, loopDiamondSrc)
	fp := collect(t, f, interp.IBits(100))
	hb := BuildHyperblock(nil, fp, f.BlockByName("body"), 0.1)
	// Region: body, rare, latch (latch joins, both preds inside).
	if !hb.Contains(f.BlockByName("rare")) || !hb.Contains(f.BlockByName("latch")) {
		t.Fatalf("hyperblock missing blocks: %v", hb.Blocks)
	}
	if hb.Contains(f.BlockByName("head")) {
		t.Error("hyperblock crossed a back edge")
	}
	if hb.PredBits != 1 {
		t.Errorf("PredBits = %d, want 1", hb.PredBits)
	}
	if hb.SizeVsBlock() <= 1 {
		t.Errorf("SizeVsBlock = %v, want > 1", hb.SizeVsBlock())
	}
}

func TestHyperblockColdOps(t *testing.T) {
	f := parse(t, loopDiamondSrc)
	// Run long enough that rare executes 25% of iterations: with
	// coldFraction 0.5, rare (25%) is cold.
	fp := collect(t, f, interp.IBits(100))
	hb := BuildHyperblock(nil, fp, f.BlockByName("body"), 0.5)
	if hb.ColdOps == 0 {
		t.Error("expected cold ops from the rare block")
	}
	if frac := hb.ColdOpFraction(); frac <= 0 || frac >= 1 {
		t.Errorf("ColdOpFraction = %v", frac)
	}
}

func TestCharacterize(t *testing.T) {
	src := `func @c(i64, i64) {
entry:
  r3 = const.i64 0
  br %head
head:
  r4 = phi.i64 [entry: r3] [join: r9]
  r5 = cmp.lt r4, r2
  condbr r5, %body, %exit
body:
  r6 = add r1, r4
  r7 = load.i64 r6
  r8 = cmp.gt r7, r3
  condbr r8, %pos, %join
pos:
  store.i64 r6, r3
  br %join
join:
  r10 = const.i64 1
  r9 = add r4, r10
  br %head
exit:
  ret
}
`
	f := parse(t, src)
	st := Characterize(nil, f)
	if st.Branches != 2 || st.PredicationBits != 2 {
		t.Fatalf("branches=%d predbits=%d, want 2,2", st.Branches, st.PredicationBits)
	}
	if st.BackwardBranches != 1 {
		t.Fatalf("backward branches = %d, want 1", st.BackwardBranches)
	}
	// The body branch depends on one load; head's doesn't. Avg = 0.5.
	if st.AvgMemBranch < 0.49 || st.AvgMemBranch > 0.51 {
		t.Errorf("AvgMemBranch = %v, want 0.5", st.AvgMemBranch)
	}
	// The store in pos is control-dependent on the body branch; the load in
	// body is control-dependent on head's branch (body side only).
	if st.AvgBranchMem <= 0 {
		t.Errorf("AvgBranchMem = %v, want > 0", st.AvgBranchMem)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindPath: "bl-path", KindBraid: "braid",
		KindSuperblock: "superblock", KindHyperblock: "hyperblock",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestTunedHyperblockExcludesColdBlocks(t *testing.T) {
	f := parse(t, loopDiamondSrc)
	fp := collect(t, f, interp.IBits(100))
	naive := BuildHyperblock(nil, fp, f.BlockByName("body"), 0.5)
	tuned := BuildTunedHyperblock(nil, fp, f.BlockByName("body"), 0.5, 0.5)
	// rare runs 25% of iterations: excluded at a 50% inclusion threshold.
	if !naive.Contains(f.BlockByName("rare")) {
		t.Fatal("naive hyperblock should include the rare block")
	}
	if tuned.Contains(f.BlockByName("rare")) {
		t.Fatal("tuned hyperblock should exclude the rare block")
	}
	if tuned.NumOps() >= naive.NumOps() {
		t.Fatal("tuned hyperblock should be smaller")
	}
}

func TestFromBlock(t *testing.T) {
	f := parse(t, loopDiamondSrc)
	b := f.BlockByName("body")
	r := FromBlock(f, b)
	if r.Entry != b || r.Exit != b || len(r.Blocks) != 1 {
		t.Fatal("single-block region malformed")
	}
	if r.NumOps() != b.NumOps() {
		t.Fatal("ops mismatch")
	}
}

func TestPathTreesVsBraids(t *testing.T) {
	// A loop with two latches: braids split the groups, path trees merge
	// them under the shared entry and fan out to two exits.
	src := `func @pt(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [lA: r4] [lB: r5]
  r6 = phi.i64 [entry: r2] [lA: r7] [lB: r8]
  r9 = cmp.lt r3, r1
  condbr r9, %body, %exit
body:
  r10 = const.i64 2
  r11 = rem r3, r10
  r12 = cmp.eq r11, r2
  condbr r12, %lA, %lB
lA:
  r7 = add r6, r3
  r13 = const.i64 1
  r4 = add r3, r13
  br %head
lB:
  r8 = sub r6, r3
  r14 = const.i64 1
  r5 = add r3, r14
  br %head
exit:
  ret r6
}
`
	f := parse(t, src)
	fp := collect(t, f, interp.IBits(100))
	braids := BuildBraids(fp, 0)
	trees := BuildPathTrees(fp, 0)

	// Braids: the head-entry iteration paths split into two groups (exit lA
	// vs exit lB); trees merge them into one.
	topTree := trees[0]
	if topTree.LiveOutSpread() < 2 {
		t.Fatalf("path tree should fan out to 2 exits, got %d", topTree.LiveOutSpread())
	}
	for _, br := range braids {
		if br.LiveOutSpread() != 1 {
			t.Fatalf("braid with %d exits violates the same-exit invariant", br.LiveOutSpread())
		}
	}
	// The tree's coverage >= any single braid's (it merged more paths), the
	// tradeoff the paper discusses.
	if topTree.Coverage(fp) < braids[0].Coverage(fp) {
		t.Fatal("path tree coverage should dominate the braid's")
	}
}
