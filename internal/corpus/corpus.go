// Package corpus profiles the programs the dense rewrites of the region,
// frame and schedule builders are checked against their reference
// implementations on: the 29 workloads, 200 irgen programs and every
// checked-in .nir program. Only tests import it.
package corpus

import (
	"path/filepath"
	"runtime"
	"testing"

	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/passes"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/program"
	"needle/internal/workloads"
)

// Program is one profiled corpus program: its inlined function's profile
// and the analysis manager it was collected on.
type Program struct {
	Name string
	AM   *pm.Manager
	FP   *profile.FunctionProfile
}

// Programs returns the corpus programs: the 29 workloads at their default
// size, 200 irgen programs in two shapes (the default, and the one the
// service benchmark sends), and every checked-in .nir program from its first
// function with zero arguments. Every call builds fresh functions and
// memory images, so a caller may measure what they cost.
func Programs(tb testing.TB) []*program.Program {
	tb.Helper()
	var out []*program.Program
	add := func(name, suite string, f *ir.Function, args, mem []uint64) {
		p, err := program.New(name, suite, f, args, mem)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out = append(out, p)
	}
	for _, w := range workloads.All() {
		_, args, mem := w.Instance(0)
		add(w.Name, w.Suite, w.Build(), args, mem)
	}
	pool := irgen.Config{MaxDepth: 3, MaxStmts: 8, MaxLoopTrip: 24, MemWords: 1024}
	for seed := int64(1); seed <= 100; seed++ {
		for _, cfg := range []irgen.Config{irgen.DefaultConfig(), pool} {
			p := irgen.Generate(seed, cfg)
			add(p.F.Name, program.SuiteUser, p.F, []uint64{interp.IBits(seed)}, p.NewMem())
		}
	}
	for _, path := range nirFiles(tb) {
		p, err := program.LoadFile(path, program.LoadOptions{})
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		add(path, program.SuiteUser, p.F, p.Args, p.Memory)
	}
	return out
}

// Profiles profiles the corpus Programs, each function inlined first.
// Programs that fault leave no profile and are skipped.
func Profiles(tb testing.TB) []Program {
	tb.Helper()
	var out []Program
	for _, p := range Programs(tb) {
		f, err := passes.InlineAll(p.F)
		if err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
		am := pm.NewManager()
		fp, err := profile.CollectFunction(am, f, append([]uint64(nil), p.Args...), append([]uint64(nil), p.Memory...), true, 1<<22)
		if err != nil {
			continue
		}
		out = append(out, Program{p.Name, am, fp})
	}
	if len(out) < 29+200 {
		tb.Fatalf("only %d corpus programs profiled", len(out))
	}
	return out
}

// nirFiles lists the checked-in .nir programs: the ir testdata and the
// examples.
func nirFiles(tb testing.TB) []string {
	_, here, _, _ := runtime.Caller(0)
	root := filepath.Join(filepath.Dir(here), "..", "..")
	var files []string
	for _, pattern := range []string{"internal/ir/testdata/*.nir", "examples/nir/*.nir"} {
		m, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil || len(m) == 0 {
			tb.Fatalf("no .nir programs at %s: %v", pattern, err)
		}
		files = append(files, m...)
	}
	return files
}
