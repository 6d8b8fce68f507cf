package ir

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseVerify drives untrusted text through the full ingestion
// contract the inline-source endpoint depends on: Parse either rejects the
// input or yields a module every function of which passes Verify, and
// whose printed form re-parses to the identical printed form. A panic
// anywhere in Parse/Verify/Print is a bug — the service feeds these
// functions attacker-controlled bytes.
//
// Parse is also checked against referenceParse, the parser it replaced:
// both accept the same inputs, reject the rest with the same error text,
// and build modules with the same printed and positional bytes.
func FuzzParseVerify(f *testing.F) {
	for _, dir := range []string{"testdata", filepath.Join("..", "..", "examples", "nir")} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.nir"))
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	// Hand-picked adversarial shapes: huge register indices, phi arity
	// mismatches, dangling block refs, duplicate functions.
	f.Add("func @f(i64) {\nentry:\n  ret r1\n}\n")
	f.Add("func @f() {\nentry:\n  r1048577 = const.i64 0\n  ret\n}\n")
	f.Add("func @f() {\nentry:\n  br %nope\n}\n")
	f.Add("func @f() {\na:\n  r1 = phi.i64 [a: r1]\n  ret\n}\n")
	f.Add("func @f() {\nentry:\n  ret\n}\nfunc @f() {\nentry:\n  ret\n}\n")
	// Non-canonical names around canonical ones, empty operands and
	// Unicode spaces, which the scan must split as strings.Fields does.
	f.Add("func @f(i64) {\nentry:\n  x = add r1, r1\n  r3 = add x, r1\n  y = sub r3,, x\n  ret y\n}\n")
	f.Add("func @f(i64) {\nentry:\n  r2 = add r1, r1\n  condbr r2, %a,%b\na:\n  ret r2\nb:\n  ret\u0085r1\n}")
	f.Add("func @g(i64, f64) {\nentry:\n  r3 = call.i64 @h  r1\n  ret r3\n}\nfunc @h(i64) {\ne:\n  ret r1\n}\n")

	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		ref, refErr := referenceParse(src)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("Parse error %v, reference error %v\nsource:\n%s", err, refErr, src)
		case err != nil && err.Error() != refErr.Error():
			t.Fatalf("Parse error %q, reference error %q\nsource:\n%s", err, refErr, src)
		case err != nil:
			return // rejected input is fine; panics are not
		}
		for _, fn := range m.Funcs {
			if verr := Verify(fn); verr != nil {
				t.Fatalf("Parse accepted a function Verify rejects: %v\nsource:\n%s", verr, src)
			}
		}
		printed := PrintModule(m)
		if want := PrintModule(ref); printed != want {
			t.Fatalf("Parse and reference print differently:\nParse:\n%s\nreference:\n%s", printed, want)
		}
		for i, fn := range m.Funcs {
			got, gerr := AppendFunction(nil, fn)
			want, werr := AppendFunction(nil, ref.Funcs[i])
			if !bytes.Equal(got, want) || (gerr == nil) != (werr == nil) ||
				(gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("@%s: positional bytes differ from the reference's (errors %v, %v)", fn.Name, gerr, werr)
			}
		}
		m2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\nprinted:\n%s", err, printed)
		}
		if again := PrintModule(m2); again != printed {
			t.Fatalf("print not a fixed point:\nfirst:\n%s\nsecond:\n%s", printed, again)
		}
	})
}
