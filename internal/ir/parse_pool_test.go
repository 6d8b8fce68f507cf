package ir

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"unsafe"
)

// poolSources are the checked-in .nir programs plus hand-written ones with
// non-canonical register names and calls, and sources Parse rejects at
// each stage: mid-scan after operands were stored, in build after names
// were numbered, and at call resolution.
func poolSources(t *testing.T) []string {
	t.Helper()
	var srcs []string
	for _, dir := range []string{"testdata", filepath.Join("..", "..", "examples", "nir")} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.nir"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			srcs = append(srcs, string(b))
		}
	}
	return append(srcs,
		"func @f(i64) {\nentry:\n  x = add r1, r1\n  r3 = add x, r1\n  y = sub r3,, x\n  ret y\n}\n",
		"func @f(i64) {\nentry:\n  x = add r1, r1\n  condbr x, %a\na:\n  ret x\n}\n",
		"func @f(i64) {\nentry:\n  x = add r1, r1\n  z = mul x, x\n  ret y\n}\n",
		"func @g(i64, f64) {\nentry:\n  r3 = call.i64 @h  r1\n  ret r3\n}\nfunc @h(i64) {\ne:\n  ret r1\n}\n",
		"func @g(i64) {\nentry:\n  v = call.i64 @missing r1\n  ret v\n}\n",
		// Last, so a pooled parser was last used on it: a named register,
		// and a condbr whose block operands no later operand overwrites.
		"func @f(i64) {\nentry:\n  c = add r1, r1\n  condbr c, %a, %b\na:\n  br %b\nb:\n  ret\n}\n",
	)
}

// parseResult is what a parse produced: the printed module or the error.
func parseResult(m *Module, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return PrintModule(m)
}

// freshParse parses src on scratch of its own, as Parse did before its
// scratch was pooled.
func freshParse(src string) string { return parseResult((&parser{src: src}).module()) }

// TestPooledParseMatchesFresh: parses of distinct sources, the rejected
// ones among them, reuse one another's scratch, and each prints exactly
// what a parse on fresh scratch prints (or fails with its error).
func TestPooledParseMatchesFresh(t *testing.T) {
	srcs := poolSources(t)
	for round := range 3 {
		for i, src := range srcs {
			if got, want := parseResult(Parse(src)), freshParse(src); got != want {
				t.Fatalf("round %d, source %d: pooled parse gave\n%s\nfresh scratch gave\n%s", round, i, got, want)
			}
		}
	}
}

// TestConcurrentPooledParses: goroutines parsing the sources at once never
// share scratch (run it under -race).
func TestConcurrentPooledParses(t *testing.T) {
	srcs := poolSources(t)
	want := make([]string, len(srcs))
	for i, src := range srcs {
		want[i] = freshParse(src)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 40 * len(srcs) {
				i := (k*7 + g) % len(srcs)
				if got := parseResult(Parse(srcs[i])); got != want[i] {
					t.Errorf("goroutine %d, source %d: got\n%s\nwant\n%s", g, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPooledParserHoldsNoSource: once Parse returns, the scratch it gave
// back to the pool holds no string of the source, after parses that
// succeed and parses that fail mid-scan or in build.
func TestPooledParserHoldsNoSource(t *testing.T) {
	srcs := poolSources(t)
	var p *parser
	// The pool may drop what is put in it (always under -race, now and
	// then), so parse until a parser comes back.
	for k := 0; p == nil && k < 100; k++ {
		for _, src := range srcs {
			Parse(src)
		}
		p, _ = parsers.Get().(*parser)
	}
	if p == nil {
		t.Fatal("no parser came back to the pool in 100 rounds of parses")
	}
	inSource := func(s string) bool {
		at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, src := range srcs {
			lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
			if len(s) > 0 && at >= lo && at < lo+uintptr(len(src)) {
				return true
			}
		}
		return false
	}
	check := func(what string, ss ...string) {
		for _, s := range ss {
			if s != "" {
				t.Errorf("pooled parser keeps %s %q (in a source: %v)", what, s, inSource(s))
			}
		}
	}
	check("its source or line", p.src, p.line)
	for _, b := range p.blocks[:cap(p.blocks)] {
		check("a block name", b.name)
	}
	for _, in := range p.instrs[:cap(p.instrs)] {
		check("an instruction's names", in.dst, in.mnemonic, in.callee)
	}
	check("an operand", p.args[:cap(p.args)]...)
	check("a block reference", p.refs[:cap(p.refs)]...)
	for nm := range p.named {
		check("a register name", nm)
	}
	if len(p.blocks)+len(p.instrs)+len(p.args)+len(p.refs) != 0 || cap(p.instrs) == 0 {
		t.Errorf("pooled parser's tables are not empty scratch: lengths %d %d %d %d, instruction capacity %d",
			len(p.blocks), len(p.instrs), len(p.args), len(p.refs), cap(p.instrs))
	}
}
