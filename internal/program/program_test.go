package program

import (
	"errors"
	"math"
	"strings"
	"testing"

	"needle/internal/ir"
	"needle/internal/irgen"
)

const countSrc = `func @count(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [body: r4]
  r5 = cmp.lt r3, r1
  condbr r5, %body, %exit
body:
  r6 = const.i64 1
  r4 = add r3, r6
  br %head
exit:
  ret r3
}
`

func mustLoad(t *testing.T, src string, opts LoadOptions) *Program {
	t.Helper()
	p, err := Load(src, opts)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

func TestDigestDeterministicAndContentAddressed(t *testing.T) {
	opts := LoadOptions{Args: []string{"10"}}
	p1 := mustLoad(t, countSrc, opts)
	p2 := mustLoad(t, countSrc, opts)
	if p1.Digest() != p2.Digest() {
		t.Errorf("identical loads digest differently: %s vs %s", p1.Digest(), p2.Digest())
	}
	if len(p1.Digest()) != 32 {
		t.Errorf("digest length %d, want 32 hex chars", len(p1.Digest()))
	}
	if p1.Key() != p1.Name+"@"+p1.Digest() {
		t.Errorf("Key() = %q, want name@digest", p1.Key())
	}

	// Any change to body, args, or memory is a different digest.
	body := mustLoad(t, strings.Replace(countSrc, "const.i64 1", "const.i64 2", 1), opts)
	if body.Digest() == p1.Digest() {
		t.Error("changed body shares a digest")
	}
	args := mustLoad(t, countSrc, LoadOptions{Args: []string{"11"}})
	if args.Digest() == p1.Digest() {
		t.Error("changed arguments share a digest")
	}
	mem := mustLoad(t, countSrc, LoadOptions{Args: []string{"10"}, MemWords: 8192})
	if mem.Digest() == p1.Digest() {
		t.Error("changed memory image shares a digest")
	}

	// A module with calls digests its callees too, by name and body.
	calls := mustLoad(t, callerSrc+stepSrc, opts)
	if again := mustLoad(t, callerSrc+stepSrc, opts); again.Digest() != calls.Digest() {
		t.Errorf("identical modules with calls digest differently: %s vs %s", calls.Digest(), again.Digest())
	}
	for change, src := range map[string]string{
		"callee name":     strings.ReplaceAll(callerSrc+stepSrc, "@step", "@next"),
		"block name":      callerSrc + strings.ReplaceAll(stepSrc, "entry", "start"),
		"register number": callerSrc + strings.ReplaceAll(stepSrc, "r2", "r5"),
		"callee body":     callerSrc + strings.Replace(stepSrc, "const.i64 1", "const.i64 2", 1),
	} {
		if p := mustLoad(t, src, opts); p.Digest() == calls.Digest() {
			t.Errorf("changed %s shares a digest", change)
		}
	}
}

// callerSrc calls stepSrc twice.
const callerSrc = `func @twice(i64) {
entry:
  r2 = call.i64 @step r1
  r3 = call.i64 @step r2
  ret r3
}
`

const stepSrc = `func @step(i64) {
entry:
  r2 = const.i64 1
  r3 = add r1, r2
  ret r3
}
`

func TestLoadDefaultsAndEntrySelection(t *testing.T) {
	p := mustLoad(t, countSrc, LoadOptions{})
	if p.Name != "count" || p.Suite != SuiteUser {
		t.Errorf("identity = %s/%s, want count/%s", p.Name, p.Suite, SuiteUser)
	}
	if len(p.Memory) != DefaultMemWords {
		t.Errorf("memory defaulted to %d words, want %d", len(p.Memory), DefaultMemWords)
	}
	if len(p.Args) != 1 || p.Args[0] != 0 {
		t.Errorf("missing args must zero-fill, got %v", p.Args)
	}

	two := countSrc + "\nfunc @other() {\nentry:\n  r1 = const.i64 9\n  ret r1\n}\n"
	p = mustLoad(t, two, LoadOptions{Entry: "other"})
	if p.Name != "other" || p.F.Name != "other" {
		t.Errorf("entry selection picked %s", p.F.Name)
	}
	if _, err := Load(two, LoadOptions{Entry: "missing"}); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown entry: %v, want ErrInvalid", err)
	}
}

// TestLoadTypedErrors covers every way Load rejects its input: each
// failure wraps ErrInvalid or ErrTooLarge, which is all needled's status
// mapping looks for (422 and 413).
func TestLoadTypedErrors(t *testing.T) {
	if _, err := Load("not nir at all", LoadOptions{}); !errors.Is(err, ErrInvalid) {
		t.Errorf("parse failure: %v, want ErrInvalid", err)
	}
	// Verifier rejections surface both the sentinel and the typed error
	// (inconsistent returns pass the parser's own checks but fail Verify).
	_, err := Load("func @f(i64) {\nentry:\n  condbr r1, %a, %b\na:\n  ret r1\nb:\n  ret\n}\n", LoadOptions{})
	if !errors.Is(err, ErrInvalid) {
		t.Errorf("verifier failure: %v, want ErrInvalid", err)
	}
	var ve *ir.VerifyError
	if !errors.As(err, &ve) {
		t.Errorf("verifier failure does not carry *ir.VerifyError: %v", err)
	}

	lim := Limits{MaxSourceBytes: 8}
	if _, err := Load(countSrc, LoadOptions{Limits: lim}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("source cap: %v, want ErrTooLarge", err)
	}
	lim = Limits{MaxInstrs: 3}
	if _, err := Load(countSrc, LoadOptions{Limits: lim}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("instruction cap: %v, want ErrTooLarge", err)
	}
	lim = Limits{MaxMemWords: 100}
	if _, err := Load(countSrc, LoadOptions{MemWords: 4096, Limits: lim}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("memory cap: %v, want ErrTooLarge", err)
	}
	if _, err := Load(countSrc, LoadOptions{Args: []string{"1", "2"}}); !errors.Is(err, ErrInvalid) {
		t.Errorf("excess arguments: %v, want ErrInvalid", err)
	}
	if _, err := Load(countSrc, LoadOptions{Args: []string{"not-a-number"}}); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad literal: %v, want ErrInvalid", err)
	}
	if _, err := Load(countSrc, LoadOptions{Args: []string{"f:zebra"}}); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad float literal: %v, want ErrInvalid", err)
	}
	if _, err := Load(countSrc, LoadOptions{Entry: "missing"}); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown entry: %v, want ErrInvalid", err)
	}
	if _, err := Load("", LoadOptions{}); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty module: %v, want ErrInvalid", err)
	}
}

func TestArgValues(t *testing.T) {
	m, err := ParseModule("func @f(i64, f64, f64) {\nentry:\n  ret r1\n}\n", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	f := m.Funcs[0]
	got, err := ArgValues(f, []string{"-7", "f:2.5", "3.5"})
	if err != nil {
		t.Fatal(err)
	}
	if int64(got[0]) != -7 {
		t.Errorf("int arg = %d, want -7", int64(got[0]))
	}
	if math.Float64frombits(got[1]) != 2.5 {
		t.Errorf("f: arg = %g, want 2.5", math.Float64frombits(got[1]))
	}
	// A float-typed parameter accepts a bare float literal.
	if math.Float64frombits(got[2]) != 3.5 {
		t.Errorf("typed float arg = %g, want 3.5", math.Float64frombits(got[2]))
	}
	// Hex and underscore-free base-0 int parsing.
	got, err = ArgValues(f, []string{"0x10"})
	if err != nil || got[0] != 16 {
		t.Errorf("hex literal: %v %v", got, err)
	}
}

func TestNewRejectsMismatchedArgs(t *testing.T) {
	m, err := ParseModule(countSrc, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("x", SuiteUser, m.Funcs[0], nil, nil); err == nil {
		t.Error("New accepted an argument-count mismatch")
	}
	if _, err := New("x", SuiteUser, nil, nil, nil); err == nil {
		t.Error("New accepted a nil entry function")
	}
}

// digestAllocsBefore is what computing the digest of the pool-shape
// program below allocated when it printed the module with fmt and hashed
// the text (1,291).
const digestAllocsBefore = 1291

// TestDigestAllocations: the digest writes through one fixed buffer, so it
// allocates a small constant number of times whatever the program's size.
func TestDigestAllocations(t *testing.T) {
	shape := irgen.Config{MaxDepth: 3, MaxStmts: 8, MaxLoopTrip: 24, MemWords: 1024}
	for _, tc := range []struct {
		seed     int64
		memWords int
	}{{4, 1024}, {1, 1024}, {1, 1 << 16}} {
		g := irgen.Generate(tc.seed, shape)
		p := mustLoad(t, ir.Print(g.F), LoadOptions{MemWords: tc.memWords, Args: []string{"5"}})
		allocs := testing.AllocsPerRun(20, func() { p.computeDigest() })
		if allocs > 8 {
			t.Errorf("seed %d, %d memory words (%d instructions): digest allocates %.0f times, want at most 8 (was %d)",
				tc.seed, tc.memWords, g.F.NumInstrs(), allocs, digestAllocsBefore)
		}
	}
}
