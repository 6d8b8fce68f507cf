package profile

import (
	"testing"

	"needle/internal/interp"
	"needle/internal/ir"
)

// biasedLoop executes a loop where iterations i%4 != 0 take the "common"
// side and every fourth iteration takes the "rare" side, so the hot path is
// strongly but not fully biased.
const biasedLoopSrc = `func @biased(i64) {
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
  condbr r8, %rare, %common
rare:
  r11 = mul r4, r6
  br %latch
common:
  r12 = add r4, r3
  br %latch
latch:
  r13 = phi.i64 [rare: r11] [common: r12]
  r10 = add r13, r2
  r14 = const.i64 1
  r9 = add r3, r14
  br %head
exit:
  ret r4
}
`

func collect(t testing.TB, src string, n int64) *FunctionProfile {
	t.Helper()
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatalf("ParseFunction: %v", err)
	}
	fp, err := CollectFunction(nil, f, []uint64{interp.IBits(n)}, nil, true, 0)
	if err != nil {
		t.Fatalf("CollectFunction: %v", err)
	}
	return fp
}

func TestRankingHottestFirst(t *testing.T) {
	fp := collect(t, biasedLoopSrc, 100)
	if len(fp.Paths) < 2 {
		t.Fatalf("executed paths = %d, want >= 2", len(fp.Paths))
	}
	for i := 0; i+1 < len(fp.Paths); i++ {
		if fp.Paths[i].Weight < fp.Paths[i+1].Weight {
			t.Fatalf("paths not sorted by weight at %d", i)
		}
	}
	hot := fp.HottestPath()
	// The common side runs 75 of 100 iterations.
	foundCommon := false
	for _, b := range hot.Blocks {
		if fp.F.Blocks[b].Name == "common" {
			foundCommon = true
		}
	}
	if !foundCommon {
		t.Errorf("hottest path should traverse the common block, got %v", hot.Blocks)
	}
}

func TestWeightsPartitionDynamicInstructions(t *testing.T) {
	f, err := ir.ParseFunction(biasedLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector(nil, f, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run([]uint64{interp.IBits(37)}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if fp.TotalWeight != res.Steps {
		t.Fatalf("TotalWeight = %d, interpreter steps = %d", fp.TotalWeight, res.Steps)
	}
	var cov float64
	for _, p := range fp.Paths {
		cov += p.Coverage(fp)
	}
	if cov < 0.999 || cov > 1.001 {
		t.Fatalf("coverages sum to %v, want 1", cov)
	}
}

func TestCoverageTopK(t *testing.T) {
	fp := collect(t, biasedLoopSrc, 100)
	c1 := fp.CoverageTopK(1)
	cAll := fp.CoverageTopK(len(fp.Paths))
	if c1 <= 0 || c1 > 1 {
		t.Fatalf("top-1 coverage = %v", c1)
	}
	if cAll < 0.999 {
		t.Fatalf("full coverage = %v, want ~1", cAll)
	}
	if fp.CoverageTopK(2) < c1 {
		t.Fatal("coverage must be monotonic in k")
	}
}

func TestBranchBiases(t *testing.T) {
	fp := collect(t, biasedLoopSrc, 100)
	biases := fp.BranchBiases()
	if len(biases) != 2 { // head and body branches
		t.Fatalf("branches = %d, want 2", len(biases))
	}
	var bodyBias float64
	for _, b := range biases {
		if b.Block.Name == "body" {
			bodyBias = b.Bias()
		}
	}
	// body branch: 25% rare vs 75% common.
	if bodyBias < 0.74 || bodyBias > 0.76 {
		t.Fatalf("body bias = %v, want 0.75", bodyBias)
	}
	if frac := fp.FractionBelow80(); frac < 0.49 || frac > 0.51 {
		t.Fatalf("FractionBelow80 = %v, want 0.5 (1 of 2 branches)", frac)
	}
	h := fp.BiasHistogram()
	var sum float64
	for _, v := range h {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("histogram sums to %v", sum)
	}
}

func TestSequenceBias(t *testing.T) {
	fp := collect(t, biasedLoopSrc, 100)
	hot := fp.HottestPath()
	st, ok := fp.SequenceBias(hot.ID)
	if !ok {
		t.Fatal("no sequence data for hottest path")
	}
	// Pattern: rare,common,common,common,... so the common path follows
	// itself 2 of every 3 within-group transitions; bias should be
	// comfortably above 0.5 and the best successor is itself.
	if !st.SamePath {
		t.Errorf("best successor should be the same path (got %d after %d)", st.BestNext, st.PathID)
	}
	if st.Bias <= 0.5 {
		t.Errorf("sequence bias = %v, want > 0.5", st.Bias)
	}
	if st.ExpandFrac < 1.99 || st.ExpandFrac > 2.01 {
		t.Errorf("self-repeating path expansion = %v, want 2.0", st.ExpandFrac)
	}
}

func TestSequenceBiasMissingPath(t *testing.T) {
	fp := collect(t, biasedLoopSrc, 4)
	if _, ok := fp.SequenceBias(99999); ok {
		t.Fatal("expected no sequence data for unknown path")
	}
}

func TestPathMetrics(t *testing.T) {
	fp := collect(t, biasedLoopSrc, 100)
	hot := fp.HottestPath()
	if hot.Branches != 2 { // head condbr + body condbr
		t.Errorf("hot path branches = %d, want 2", hot.Branches)
	}
	if hot.MemOps != 0 {
		t.Errorf("hot path mem ops = %d, want 0", hot.MemOps)
	}
	if hot.Ops <= 0 || hot.Weight != hot.Ops*hot.Freq {
		t.Errorf("weight bookkeeping wrong: ops=%d freq=%d weight=%d", hot.Ops, hot.Freq, hot.Weight)
	}
}

func TestOverlapCount(t *testing.T) {
	fp := collect(t, biasedLoopSrc, 100)
	// Top paths share head/latch blocks, so overlap among top-5 >= 2.
	if got := fp.OverlapCount(5); got < 2 {
		t.Fatalf("overlap = %d, want >= 2", got)
	}
	if fp.OverlapCount(1) != 1 {
		t.Fatal("hottest path must overlap itself")
	}
}

func TestNumExecutedPathsBounded(t *testing.T) {
	fp := collect(t, biasedLoopSrc, 100)
	if fp.NumExecutedPaths() > int(fp.DAG.NumPaths()) {
		t.Fatalf("executed %d paths, but DAG has only %d", fp.NumExecutedPaths(), fp.DAG.NumPaths())
	}
}
