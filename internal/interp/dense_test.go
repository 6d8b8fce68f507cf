package interp

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/workloads"
)

// TestBuildPlanMatchesReference checks BuildPlan against referenceBuildPlan
// on every checked-in .nir program and every function reachable from the
// 29 workloads' hot functions and from 240 irgen programs in two shapes: every block's instruction split,
// move tables, successor slots, timing packet and execution records, the
// unique predecessor lists, the edge slots and the plan's error must be
// identical (an empty table may be nil on one side).
func TestBuildPlanMatchesReference(t *testing.T) {
	fs := nirCorpus(t)
	for _, w := range workloads.All() {
		fs = append(fs, ir.ModuleOf(w.Function()).Funcs...)
	}
	pool := irgen.Config{MaxDepth: 3, MaxStmts: 8, MaxLoopTrip: 24, MemWords: 1024}
	for seed := int64(1); seed <= 120; seed++ {
		fs = append(fs, ir.ModuleOf(irgen.Generate(seed, irgen.DefaultConfig()).F).Funcs...)
		fs = append(fs, ir.ModuleOf(irgen.Generate(seed, pool).F).Funcs...)
	}
	for _, f := range fs {
		got := BuildPlan(f)
		want, wantPreds := referenceBuildPlan(f)
		comparePlans(t, f, got, want, wantPreds)
	}
}

func comparePlans(t *testing.T, f *ir.Function, got, want *Plan, wantPreds [][]*ir.Block) {
	t.Helper()
	if errText(got.err) != errText(want.err) {
		t.Fatalf("%s: plan error %v, want %v", f.Name, got.err, want.err)
	}
	if !slices.Equal(got.edgeFrom, want.edgeFrom) || !slices.Equal(got.edgeTo, want.edgeTo) ||
		got.maxPhis != want.maxPhis || got.maxMem != want.maxMem || got.calls != want.calls {
		t.Fatalf("%s: plan edges or sizes differ", f.Name)
	}
	for i := range want.blocks {
		g, w := &got.blocks[i], &want.blocks[i]
		if preds := got.preds[got.predOff[i]:got.predOff[i+1]]; !slices.Equal(preds, wantPreds[i]) {
			t.Fatalf("%s block %d: predecessors %v, want %v", f.Name, i, preds, wantPreds[i])
		}
		if !slices.Equal(g.phis, w.phis) || !slices.Equal(g.body, w.body) || g.term != w.term ||
			g.succs != w.succs || g.kind != w.kind || g.condReg != w.condReg || g.retReg != w.retReg {
			t.Fatalf("%s block %d: layout differs", f.Name, i)
		}
		if len(g.moves) != len(w.moves) {
			t.Fatalf("%s block %d: %d move tables, want %d", f.Name, i, len(g.moves), len(w.moves))
		}
		for k := range w.moves {
			if (g.moves[k] == nil) != (w.moves[k] == nil) || !slices.Equal(g.moves[k], w.moves[k]) {
				t.Fatalf("%s block %d: move table %d = %v, want %v", f.Name, i, k, g.moves[k], w.moves[k])
			}
		}
		if (g.packet == nil) != (w.packet == nil) {
			t.Fatalf("%s block %d: packet presence differs", f.Name, i)
		}
		if w.packet != nil {
			gp, wp := g.packet, w.packet
			if !slices.Equal(gp.Ent, wp.Ent) || !slices.Equal(gp.SrcOff, wp.SrcOff) || !slices.Equal(gp.Srcs, wp.Srcs) ||
				gp.NumMem != wp.NumMem || gp.CondBr != wp.CondBr {
				t.Fatalf("%s block %d: timing packet %+v, want %+v", f.Name, i, gp, wp)
			}
		}
		if !slices.Equal(g.code, w.code) {
			t.Fatalf("%s block %d: execution records differ", f.Name, i)
		}
	}
}

// nirCorpus returns the functions of every checked-in .nir program: the ir
// testdata, whose shapes.nir holds CFG shapes the generated programs lack,
// and the examples.
func nirCorpus(t *testing.T) []*ir.Function {
	t.Helper()
	var fs []*ir.Function
	for _, pattern := range []string{"../ir/testdata/*.nir", "../../examples/nir/*.nir"} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no .nir programs at %s: %v", pattern, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ir.Parse(string(src))
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			fs = append(fs, m.Funcs...)
		}
	}
	return fs
}
