package needle_test

import (
	"fmt"
	"slices"
	"testing"

	"needle/internal/analysis"
	"needle/internal/ballarus"
	"needle/internal/cgra"
	"needle/internal/frame"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/passes"
	"needle/internal/pm"
	"needle/internal/region"
	"needle/internal/sim"
	"needle/internal/workloads"
)

// analysisRow is one per-function analysis timed by BenchmarkAnalysis and
// bounded by TestAnalysisAllocations. prepare runs once per input and
// returns the call to measure, so facts the row does not own (dominators
// for ballarus, the post-dominator tree for cdeps, the profile for braids,
// the frame for schedule) are computed outside it. maxAllocs bounds the
// call's allocations on any input.
type analysisRow struct {
	name      string
	prepare   func(in analysisInput) func()
	maxAllocs float64
}

// analysisInput is one function the rows run on, with the arguments and
// memory image that execute it.
type analysisInput struct {
	name      string
	f         *ir.Function
	args, mem []uint64
}

// analysisRows lists the analyses needled recomputes for every program it
// receives, each as the pipeline calls it:
//   - ballarus is ballarus.Build on a manager that already holds the
//     dominator tree (the back-edge walk is Build's own);
//   - cdeps is analysis.ControlDependents over a prebuilt post-dominator
//     tree;
//   - characterize is region.Characterize on a one-shot manager, so it
//     includes the manager, the dominator tree, the post-dominator tree and
//     the control dependences it asks for;
//   - dominators includes the reverse postorder, and loops runs over a
//     prebuilt dominator tree;
//   - braids is region.BuildBraids over a collected profile;
//   - frame is frame.Build of the top braid, as the pipeline's Frame stage
//     calls it, on a manager that already holds liveness and control
//     dependences;
//   - schedule is cgra.Schedule of that frame on the Table V fabric;
//   - candidates is all of sim.NewCandidates over a captured trace: it
//     frames and schedules the top paths, the braids after the first and
//     the hyperblock.
//
// Each bound leaves a little room over what the row allocates on any input
// of analysisInputs; characterize's covers the manager and every analysis
// it asks for. braids allocates one
// block list per braid, and candidates one frame, schedule and target per
// candidate, so their bounds hold for these inputs' braid counts.
var analysisRows = []analysisRow{
	{"ballarus", func(in analysisInput) func() {
		am := pm.NewManager()
		am.Dominators(in.f)
		return func() {
			if _, err := ballarus.Build(am, in.f); err != nil {
				panic(err)
			}
		}
	}, 6},
	{"pdom", func(in analysisInput) func() { return func() { analysis.PostDominators(in.f) } }, 3},
	{"cdeps", func(in analysisInput) func() {
		pdom := analysis.PostDominators(in.f)
		return func() { analysis.ControlDependents(in.f, pdom) }
	}, 5},
	{"liveness", func(in analysisInput) func() { return func() { analysis.ComputeLiveness(in.f) } }, 6},
	{"sccp", func(in analysisInput) func() { return func() { analysis.ComputeSCCP(in.f) } }, 10},
	{"memdep", func(in analysisInput) func() { return func() { analysis.ComputeMemDep(in.f) } }, 10},
	{"plan", func(in analysisInput) func() { return func() { interp.BuildPlan(in.f) } }, 10},
	{"characterize", func(in analysisInput) func() { return func() { region.Characterize(nil, in.f) } }, 40},
	{"dominators", func(in analysisInput) func() { return func() { analysis.Dominators(in.f) } }, 4},
	{"loops", func(in analysisInput) func() {
		dom := analysis.Dominators(in.f)
		return func() { analysis.NaturalLoops(in.f, dom) }
	}, 5},
	{"braids", func(in analysisInput) func() {
		tr := captureInput(in)
		return func() { region.BuildBraids(tr.Profile, 0) }
	}, 40},
	{"frame", func(in analysisInput) func() {
		tr := captureInput(in)
		r := &region.BuildBraids(tr.Profile, 0)[0].Region
		tr.AM.Liveness(in.f)
		tr.AM.ControlDependents(in.f)
		return func() {
			if _, err := frame.Build(tr.AM, r, frame.Options{}); err != nil {
				panic(err)
			}
		}
	}, 14},
	{"schedule", func(in analysisInput) func() {
		tr := captureInput(in)
		fr, err := frame.Build(tr.AM, &region.BuildBraids(tr.Profile, 0)[0].Region, frame.Options{})
		if err != nil {
			panic(err)
		}
		cfg := cgra.DefaultConfig()
		return func() { cgra.Schedule(fr, cfg) }
	}, 4},
	{"candidates", func(in analysisInput) func() {
		tr := captureInput(in)
		braids := region.BuildBraids(tr.Profile, 0)
		cfg := sim.DefaultConfig()
		hot, err := frame.Build(tr.AM, &braids[0].Region, cfg.Frame)
		if err != nil {
			panic(err)
		}
		return func() {
			if _, err := sim.NewCandidates(tr, braids, hot, cfg, 3, 0.1); err != nil {
				panic(err)
			}
		}
	}, 112},
}

// captureInput captures in's baseline run on the Table V system, as the
// pipeline's Profile stage does.
func captureInput(in analysisInput) *sim.Trace {
	tr, err := sim.Capture(pm.NewManager(), in.f, slices.Clone(in.args), slices.Clone(in.mem), sim.DefaultConfig())
	if err != nil {
		panic(fmt.Sprintf("%s: %v", in.name, err))
	}
	return tr
}

// poolShape is the irgen shape of the programs needled is sent in the
// benchmark's serve-nir-cold workload.
var poolShape = irgen.Config{MaxDepth: 3, MaxStmts: 8, MaxLoopTrip: 24, MemWords: 1024}

// analysisInputs returns the functions the analysis rows run on: two
// inlined pool-shape irgen programs and 186.crafty's inlined hot function,
// the suite's largest. Seed 4 is close to the pool's average size but runs
// a single path; seed 1 runs 16 paths into 16 braids, so the target rows
// frame and schedule a full candidate table on it.
func analysisInputs(tb testing.TB) []analysisInput {
	tb.Helper()
	crafty, args, mem := workloads.ByName("186.crafty").Instance(0)
	crafty, err := passes.InlineAll(crafty)
	if err != nil {
		tb.Fatal(err)
	}
	return []analysisInput{poolInput(tb, 4), poolInput(tb, 1), {"crafty", crafty, args, mem}}
}

// poolInput returns the inlined pool-shape irgen program of seed, run with
// argument 5 over its own memory image.
func poolInput(tb testing.TB, seed int64) analysisInput {
	tb.Helper()
	p := irgen.Generate(seed, poolShape)
	f, err := passes.InlineAll(p.F)
	if err != nil {
		tb.Fatal(err)
	}
	return analysisInput{fmt.Sprintf("pool seed %d", seed), f, []uint64{interp.IBits(5)}, p.NewMem()}
}

// TestAnalysisAllocations bounds the allocations of every analysis row on
// both inputs, in the style of TestParseAllocations: the dense tables are
// sized by a counting pass and filled in place, so each analysis allocates
// a handful of arenas whatever the function's size.
func TestAnalysisAllocations(t *testing.T) {
	for _, in := range analysisInputs(t) {
		for _, row := range analysisRows {
			got := testing.AllocsPerRun(10, row.prepare(in))
			t.Logf("%s on %s: %.0f allocations", row.name, in.name, got)
			if got > row.maxAllocs {
				t.Errorf("%s on %s allocates %.0f times, want at most %.0f", row.name, in.name, got, row.maxAllocs)
			}
		}
	}
}
