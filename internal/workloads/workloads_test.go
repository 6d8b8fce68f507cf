package workloads

import (
	"testing"

	"needle/internal/analysis"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/passes"
	"needle/internal/profile"
)

// collectAll profiles every workload once at a reduced size and caches the
// results for the characterization tests below.
var profiles = map[string]*profile.FunctionProfile{}

func prof(t testing.TB, name string, n int) *profile.FunctionProfile {
	t.Helper()
	if fp, ok := profiles[name]; ok {
		return fp
	}
	w := ByName(name)
	if w == nil {
		t.Fatalf("unknown workload %q", name)
	}
	f, args, mem := w.Instance(n)
	fp, err := profile.CollectFunction(nil, f, args, mem, true, 0)
	if err != nil {
		t.Fatalf("profile %s: %v", name, err)
	}
	profiles[name] = fp
	return fp
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 29 {
		t.Fatalf("registered %d workloads, want 29 (the paper's suite)", len(all))
	}
	suites := map[string]int{}
	for _, w := range all {
		suites[w.Suite]++
		if ByName(w.Name) != w {
			t.Errorf("ByName(%s) broken", w.Name)
		}
		if w.Notes == "" || w.DefaultN <= 0 {
			t.Errorf("%s: missing metadata", w.Name)
		}
	}
	if suites[SPEC] != 18 || suites[PARSEC] != 7 || suites[PERFECT] != 4 {
		t.Fatalf("suite split = %v, want SPEC 18 / PARSEC 7 / PERFECT 4", suites)
	}
	if len(Names()) != 29 {
		t.Fatal("Names() incomplete")
	}
}

func TestEveryKernelIsWellFormed(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			f := w.Function()
			if err := analysis.VerifySSA(f); err != nil {
				t.Fatalf("SSA dominance: %v", err)
			}
			if f2 := w.Function(); f2 != f {
				t.Fatal("Function() should cache")
			}
		})
	}
}

func TestEveryKernelRunsDeterministically(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			f, args, mem1 := w.Instance(300)
			r1, err := interp.Run(f, args, mem1, nil, 0)
			if err != nil {
				t.Fatalf("run 1: %v", err)
			}
			_, args2, mem2 := w.Instance(300)
			r2, err := interp.Run(f, args2, mem2, nil, 0)
			if err != nil {
				t.Fatalf("run 2: %v", err)
			}
			if r1.Ret != r2.Ret || r1.Steps != r2.Steps {
				t.Fatalf("nondeterministic: %v/%v vs %v/%v", r1.Ret, r1.Steps, r2.Ret, r2.Steps)
			}
			if r1.Steps < 1000 {
				t.Fatalf("suspiciously short run: %d steps", r1.Steps)
			}
		})
	}
}

// TestPathCountSignatures checks the defining Table II contrast: dispatch-
// style workloads execute orders of magnitude more paths than streaming
// ones.
func TestPathCountSignatures(t *testing.T) {
	const n = 2500
	many := []string{"186.crafty", "458.sjeng", "401.bzip2"}
	few := []string{"470.lbm", "183.equake", "482.sphinx3", "dwt53"}
	for _, name := range many {
		if got := prof(t, name, n).NumExecutedPaths(); got < 100 {
			t.Errorf("%s executed %d paths, want >= 100", name, got)
		}
	}
	for _, name := range few {
		if got := prof(t, name, n).NumExecutedPaths(); got > 10 {
			t.Errorf("%s executed %d paths, want <= 10", name, got)
		}
	}
}

// TestCoverageSignatures checks Table IV's coverage spread: lbm ~100%,
// the chess engines tiny.
func TestCoverageSignatures(t *testing.T) {
	const n = 2500
	if cov := prof(t, "470.lbm", n).CoverageTopK(1); cov < 0.9 {
		t.Errorf("lbm top-path coverage = %.2f, want ~1", cov)
	}
	if cov := prof(t, "186.crafty", n).CoverageTopK(5); cov > 0.2 {
		t.Errorf("crafty top-5 coverage = %.2f, want tiny", cov)
	}
}

// TestBiasSignatures checks Figure 4's contrast: the chess engines carry
// many unbiased branches; the streaming kernels almost none.
func TestBiasSignatures(t *testing.T) {
	const n = 2500
	if frac := prof(t, "186.crafty", n).FractionBelow80(); frac < 0.5 {
		t.Errorf("crafty fraction <80%% bias = %.2f, want > 0.5", frac)
	}
	if frac := prof(t, "470.lbm", n).FractionBelow80(); frac > 0.1 {
		t.Errorf("lbm fraction <80%% bias = %.2f, want ~0", frac)
	}
}

// TestFPSignatures: the FP-flagged kernels actually execute FP work.
func TestFPSignatures(t *testing.T) {
	for _, name := range []string{"470.lbm", "blackscholes", "444.namd"} {
		w := ByName(name)
		if !w.FP {
			t.Errorf("%s should be FP-flagged", name)
		}
		f := w.Function()
		hasFP := false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op.IsFloat() {
					hasFP = true
				}
			}
		}
		if !hasFP {
			t.Errorf("%s has no FP instructions", name)
		}
	}
}

// TestMemorySignatures: lbm is the most memory-intense hot path; the
// register-resident blackscholes hot path touches no memory at all.
func TestMemorySignatures(t *testing.T) {
	const n = 2500
	lbm := prof(t, "470.lbm", n).HottestPath()
	if lbm.MemOps < 30 {
		t.Errorf("lbm hot path has %d mem ops, want ~38", lbm.MemOps)
	}
	bs := prof(t, "blackscholes", n)
	// The pricing path (not the cached-skip path) carries no loads/stores;
	// find the biggest path and check.
	var biggest = bs.HottestPath()
	for _, p := range bs.TopK(10) {
		if p.Ops > biggest.Ops {
			biggest = p
		}
	}
	if biggest.MemOps != 0 {
		t.Errorf("blackscholes pricing path has %d mem ops, want 0", biggest.MemOps)
	}
}

// TestSequenceSignature: temporal runs make the hottest path repeat
// back-to-back in the vast majority of kernels (Table III).
func TestSequenceSignature(t *testing.T) {
	const n = 2500
	repeats := 0
	checked := 0
	for _, name := range []string{"164.gzip", "470.lbm", "183.equake", "456.hmmer", "streamcluster", "403.gcc"} {
		fp := prof(t, name, n)
		st, ok := fp.SequenceBias(fp.HottestPath().ID)
		if !ok {
			continue
		}
		checked++
		if st.SamePath && st.Bias > 0.8 {
			repeats++
		}
	}
	if repeats < checked-1 {
		t.Errorf("hot path repeats in only %d of %d streaming kernels", repeats, checked)
	}
}

func TestInstanceDefaultN(t *testing.T) {
	w := ByName("dwt53")
	_, args, _ := w.Instance(0)
	if interp.I(args[0]) != int64(w.DefaultN) {
		t.Fatalf("Instance(0) should use DefaultN, got %d", interp.I(args[0]))
	}
}

// TestNamdUsesCallsUntilInlined: namd's raw kernel contains a call (the LJ
// helper), which the pipeline flattens before profiling.
func TestNamdUsesCallsUntilInlined(t *testing.T) {
	f := ByName("444.namd").Function()
	calls := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				calls++
			}
		}
	}
	if calls == 0 {
		t.Fatal("namd should call the LJ helper")
	}
	inlined, err := passes.InlineAll(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range inlined.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				t.Fatal("inlining left a call behind")
			}
		}
	}
	// Same results either way.
	_, args, mem1 := ByName("444.namd").Instance(500)
	r1, err := interp.Run(f, args, mem1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, args2, mem2 := ByName("444.namd").Instance(500)
	r2, err := interp.Run(inlined, args2, mem2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ret != r2.Ret {
		t.Fatalf("inlining changed namd's result: %v vs %v", r1.Ret, r2.Ret)
	}
}

// TestKernelsRoundTripTextualIR: every workload kernel (callees included)
// prints to .nir and parses back — the kernels double as a parser/printer
// stress corpus. The parser renumbers registers densely in definition
// order, so the textual form stabilizes after one normalization pass:
// parse∘print must be idempotent, and semantics must be preserved.
func TestKernelsRoundTripTextualIR(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			m := ir.ModuleOf(w.Function())
			text := ir.PrintModule(m)
			m2, err := ir.Parse(text)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			norm := ir.PrintModule(m2)
			m3, err := ir.Parse(norm)
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			if ir.PrintModule(m3) != norm {
				t.Fatal("parse∘print not idempotent")
			}
			// Semantics preserved: run both on the workload's inputs.
			_, args, mem1 := w.Instance(200)
			r1, err := interp.Run(w.Function(), args, mem1, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, args2, mem2 := w.Instance(200)
			r2, err := interp.Run(m2.Funcs[0], args2, mem2, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Ret != r2.Ret || r1.Steps != r2.Steps {
				t.Fatal("textual round trip changed semantics")
			}
		})
	}
}

// TestProgramCacheKeepsFewSizes: asking for many distinct problem sizes
// keeps only the most recent few materialized, and a size that fell out
// comes back with the same content digest.
func TestProgramCacheKeepsFewSizes(t *testing.T) {
	w := ByName("164.gzip")
	first, err := w.Program(11)
	if err != nil {
		t.Fatal(err)
	}
	for n := 12; n < 60; n++ {
		if _, err := w.Program(n); err != nil {
			t.Fatal(err)
		}
	}
	w.progMu.Lock()
	kept := len(w.progs)
	w.progMu.Unlock()
	if kept > maxCachedSizes {
		t.Fatalf("%d sizes kept, want at most %d", kept, maxCachedSizes)
	}
	again, err := w.Program(11)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("n=11 stayed materialized behind 48 later sizes")
	}
	if again.Key() != first.Key() {
		t.Fatalf("rematerialized key %q, want %q", again.Key(), first.Key())
	}
	if p, _ := w.Program(11); p != again {
		t.Fatal("the most recent size was not reused")
	}
}
