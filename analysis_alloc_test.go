package needle_test

import (
	"testing"

	"needle/internal/analysis"
	"needle/internal/ballarus"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/passes"
	"needle/internal/pm"
	"needle/internal/region"
	"needle/internal/workloads"
)

// analysisRow is one per-function analysis timed by BenchmarkAnalysis and
// bounded by TestAnalysisAllocations. prepare runs once per function and
// returns the call to measure, so facts the row does not own (dominators
// for ballarus, the post-dominator tree for cdeps) are computed outside it.
// maxAllocs bounds the call's allocations on any input.
type analysisRow struct {
	name      string
	prepare   func(f *ir.Function) func()
	maxAllocs float64
}

// analysisRows lists the analyses needled recomputes for every program it
// receives, each as the pipeline calls it:
//   - ballarus is ballarus.Build on a manager that already holds the
//     dominator tree (the back-edge walk is Build's own);
//   - cdeps is analysis.ControlDependents over a prebuilt post-dominator
//     tree;
//   - characterize is region.Characterize on a one-shot manager, so it
//     includes the manager, the dominator tree, the post-dominator tree and
//     the control dependences it asks for.
//
// Each bound leaves a little room over what the row allocates on either
// input of analysisInputs; characterize's covers the manager and the
// dominator tree, whose allocations grow with the function.
var analysisRows = []analysisRow{
	{"ballarus", func(f *ir.Function) func() {
		am := pm.NewManager()
		am.Dominators(f)
		return func() {
			if _, err := ballarus.Build(am, f); err != nil {
				panic(err)
			}
		}
	}, 6},
	{"pdom", func(f *ir.Function) func() { return func() { analysis.PostDominators(f) } }, 3},
	{"cdeps", func(f *ir.Function) func() {
		pdom := analysis.PostDominators(f)
		return func() { analysis.ControlDependents(f, pdom) }
	}, 5},
	{"liveness", func(f *ir.Function) func() { return func() { analysis.ComputeLiveness(f) } }, 6},
	{"sccp", func(f *ir.Function) func() { return func() { analysis.ComputeSCCP(f) } }, 10},
	{"memdep", func(f *ir.Function) func() { return func() { analysis.ComputeMemDep(f) } }, 10},
	{"plan", func(f *ir.Function) func() { return func() { interp.BuildPlan(f) } }, 10},
	{"characterize", func(f *ir.Function) func() { return func() { region.Characterize(nil, f) } }, 40},
}

// poolShape is the irgen shape of the programs needled is sent in the
// benchmark's serve-nir-cold workload.
var poolShape = irgen.Config{MaxDepth: 3, MaxStmts: 8, MaxLoopTrip: 24, MemWords: 1024}

// analysisInputs returns the two functions the analysis rows run on: an
// inlined pool-shape irgen program (seed 4, close to the pool's average
// size) and 186.crafty's inlined hot function, the suite's largest.
func analysisInputs(tb testing.TB) []struct {
	name string
	f    *ir.Function
} {
	tb.Helper()
	pool, err := passes.InlineAll(irgen.Generate(4, poolShape).F)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := workloads.ByName("186.crafty").Program(0)
	if err != nil {
		tb.Fatal(err)
	}
	crafty, err := passes.InlineAll(p.F)
	if err != nil {
		tb.Fatal(err)
	}
	return []struct {
		name string
		f    *ir.Function
	}{{"pool", pool}, {"crafty", crafty}}
}

// TestAnalysisAllocations bounds the allocations of every analysis row on
// both inputs, in the style of TestParseAllocations: the dense tables are
// sized by a counting pass and filled in place, so each analysis allocates
// a handful of arenas whatever the function's size.
func TestAnalysisAllocations(t *testing.T) {
	for _, in := range analysisInputs(t) {
		for _, row := range analysisRows {
			if got := testing.AllocsPerRun(10, row.prepare(in.f)); got > row.maxAllocs {
				t.Errorf("%s on %s allocates %.0f times, want at most %.0f", row.name, in.name, got, row.maxAllocs)
			}
		}
	}
}
