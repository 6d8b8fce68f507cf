package vet

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"needle/internal/pm"
	"needle/internal/program"
)

var update = flag.Bool("update", false, "rewrite golden vet reports")

// load builds a Program from source with the default memory size.
func load(t testing.TB, src string) *program.Program {
	t.Helper()
	p, err := program.Load(src, program.LoadOptions{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

func find(rep *Report, code string) []Diagnostic {
	var out []Diagnostic
	for _, d := range rep.Diagnostics {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

func TestCheckDeadStore(t *testing.T) {
	rep := Check(nil, load(t, `func @f(i64) {
entry:
  r2 = const.i64 7
  r3 = const.i64 1
  store.i64 r2, r3
  store.i64 r2, r1
  ret r1
}`))
	ds := find(rep, CodeDeadStore)
	if len(ds) != 1 {
		t.Fatalf("dead stores = %v, want exactly the first store", ds)
	}
	if ds[0].Instr != 2 || ds[0].Severity != SevWarning {
		t.Fatalf("dead store anchored wrong: %+v", ds[0])
	}
}

func TestCheckDeadStoreBlockedByAliasingRead(t *testing.T) {
	rep := Check(nil, load(t, `func @f(i64) {
entry:
  r2 = const.i64 7
  r3 = const.i64 1
  store.i64 r2, r3
  r4 = load.i64 r2
  store.i64 r2, r4
  ret r4
}`))
	if ds := find(rep, CodeDeadStore); len(ds) != 0 {
		t.Fatalf("store read back before overwrite flagged dead: %v", ds)
	}
	// A may-aliasing read (unknown address) must also block the report.
	rep = Check(nil, load(t, `func @g(i64) {
entry:
  r2 = const.i64 7
  r3 = const.i64 1
  store.i64 r2, r3
  r4 = load.i64 r1
  store.i64 r2, r4
  ret r4
}`))
	if ds := find(rep, CodeDeadStore); len(ds) != 0 {
		t.Fatalf("may-aliasing read did not block dead-store: %v", ds)
	}
}

func TestCheckOOBProvableIsError(t *testing.T) {
	rep := Check(nil, load(t, `func @f() {
entry:
  r1 = const.i64 5000
  r2 = load.i64 r1
  ret r2
}`))
	oob := find(rep, CodeOOBAccess)
	if len(oob) != 1 || oob[0].Severity != SevError {
		t.Fatalf("oob = %v, want one error (mem size %d)", oob, program.DefaultMemWords)
	}
	if !rep.HasErrors() {
		t.Fatal("report must count the error")
	}
}

func TestCheckOOBFinitePartialIsWarning(t *testing.T) {
	// r2 = r1 & 8191 is in [0, 8191]: finite, partly past the 4096-word
	// memory — a warning, not an error (some executions are fine).
	rep := Check(nil, load(t, `func @f(i64) {
entry:
  r3 = const.i64 8191
  r2 = and r1, r3
  r4 = load.i64 r2
  ret r4
}`))
	oob := find(rep, CodeOOBAccess)
	if len(oob) != 1 || oob[0].Severity != SevWarning {
		t.Fatalf("oob = %v, want one warning", oob)
	}
}

func TestCheckOOBWidenedLoopIsSilent(t *testing.T) {
	// A widened loop index has an infinite upper bound; that is ignorance,
	// not evidence, so no diagnostic.
	rep := Check(nil, load(t, `func @f(i64) {
entry:
  r2 = const.i64 0
  r3 = const.i64 1
  br %head
head:
  r4 = phi.i64 [entry: r2] [body: r5]
  r6 = cmp.lt r4, r1
  condbr r6, %body, %exit
body:
  r7 = load.i64 r4
  r5 = add r4, r3
  br %head
exit:
  ret r4
}`))
	if oob := find(rep, CodeOOBAccess); len(oob) != 0 {
		t.Fatalf("widened loop index flagged: %v", oob)
	}
}

func TestCheckUnreachableAndConstantBranch(t *testing.T) {
	rep := Check(nil, load(t, `func @f(i64) {
entry:
  r2 = const.i64 0
  condbr r2, %dead, %live
dead:
  r3 = add r1, r1
  br %live
live:
  ret r1
}`))
	if u := find(rep, CodeUnreachableBlock); len(u) != 1 || u[0].Block != "dead" {
		t.Fatalf("unreachable = %v, want [dead]", u)
	}
	if c := find(rep, CodeConstantBranch); len(c) != 1 || c[0].Block != "entry" {
		t.Fatalf("constant-branch = %v, want [entry]", c)
	}
}

func TestCheckSelfAliasStore(t *testing.T) {
	// Bucket increment: the store address comes from a loaded value inside
	// the loop — the canonical self-aliasing offload candidate.
	rep := Check(nil, load(t, `func @f(i64, i64) {
entry:
  r3 = const.i64 0
  r4 = const.i64 1
  br %head
head:
  r5 = phi.i64 [entry: r3] [body: r6]
  r7 = cmp.lt r5, r2
  condbr r7, %body, %exit
body:
  r8 = add r1, r5
  r9 = load.i64 r8
  r10 = load.i64 r9
  r11 = add r10, r4
  store.i64 r9, r11
  r6 = add r5, r4
  br %head
exit:
  ret r5
}`))
	sa := find(rep, CodeSelfAliasStore)
	if len(sa) != 1 || sa[0].Severity != SevInfo {
		t.Fatalf("self-alias = %v, want one info", sa)
	}
}

func TestCheckDeterministic(t *testing.T) {
	src, err := os.ReadFile(example("histogram.nir"))
	if err != nil {
		t.Fatal(err)
	}
	p := load(t, string(src))
	a, err := MarshalReport(Check(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalReport(Check(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("vet output not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestCheckCoversCallees(t *testing.T) {
	rep := Check(nil, load(t, `func @main(i64) {
entry:
  r2 = call.i64 @helper r1
  ret r2
}
func @helper(i64) {
entry:
  r2 = const.i64 9999
  r3 = load.i64 r2
  ret r3
}`))
	oob := find(rep, CodeOOBAccess)
	if len(oob) != 1 || oob[0].Func != "helper" {
		t.Fatalf("callee diagnostics missing: %v", oob)
	}
}

// TestCheckComputesEachAnalysisOncePerFunction: vet reads SCCP, ranges and
// memory dependence (plus loops, over dominators) once per function of the
// module, and a second Check through the same manager computes nothing.
func TestCheckComputesEachAnalysisOncePerFunction(t *testing.T) {
	p := load(t, `func @main(i64) {
entry:
  r2 = call.i64 @helper r1
  ret r2
}
func @helper(i64) {
entry:
  r2 = const.i64 9999
  r3 = load.i64 r2
  ret r3
}`)
	am := pm.NewManager()
	Check(am, p)
	first := am.Stats()
	for _, k := range []pm.Kind{pm.KindSCCP, pm.KindRanges, pm.KindMemDep, pm.KindLoops, pm.KindDominators} {
		if n := first.Computed[k]; n != 2 {
			t.Errorf("%v computed %d times over 2 functions, want 2", k, n)
		}
	}
	Check(am, p)
	if again := am.Stats(); again.Misses != first.Misses {
		t.Errorf("second Check computed %d more analyses", again.Misses-first.Misses)
	}
}

func example(name string) string {
	return filepath.Join("..", "..", "examples", "nir", name)
}

// TestGoldenExamples pins the exact `needle -vet -json` bytes for the
// checked-in examples: the two clean kernels and the two deliberately
// buggy ones. Regenerate with `go test ./internal/vet -update`.
func TestGoldenExamples(t *testing.T) {
	for _, name := range []string{"saxpy", "histogram", "deadstore", "oob"} {
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(example(name + ".nir"))
			if err != nil {
				t.Fatal(err)
			}
			p, err := program.Load(string(src), program.LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := MarshalReport(Check(nil, p))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			golden := filepath.Join("testdata", name+".vet.json")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("vet report for %s drifted:\n got: %s\nwant: %s", name, got, want)
			}
		})
	}
}

// TestExamplesVetClean: the two real example kernels must produce no
// errors and no warnings (infos — offload-candidate facts — are fine).
func TestExamplesVetClean(t *testing.T) {
	for _, name := range []string{"saxpy", "histogram"} {
		src, err := os.ReadFile(example(name + ".nir"))
		if err != nil {
			t.Fatal(err)
		}
		p, err := program.Load(string(src), program.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rep := Check(nil, p)
		if rep.Errors != 0 || rep.Warnings != 0 {
			t.Errorf("%s not vet-clean:\n%s", name, rep.Text())
		}
	}
}
