package needle_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docSpanRE matches an inline code span, and docNameRE a pkg.Name inside
// one: a lowercase package name not itself the tail of a path or
// selector, then an identifier.
var (
	docSpanRE = regexp.MustCompile("`[^`]+`")
	docNameRE = regexp.MustCompile("(?:^|[^\\w./])([a-z][a-z0-9]*)\\.([A-Za-z_]\\w*)")
)

// TestDocsNameLiveIdentifiers fails when README.md, DESIGN.md or a
// docs/*.md file puts in a code span a pkg.Name whose pkg is a directory
// under internal/ and whose Name is not a top-level declaration of that
// package's non-test files: a doc that names a deleted or renamed function,
// method, type, variable or constant. A counter the package registers
// (`sim.captures` is the string "sim.captures" in package sim) counts as
// declared.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append([]string{"README.md", "DESIGN.md"}, docs...)
	decls := map[string]map[string]bool{} // package -> declaredNames
	checked := 0
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(b)) {
			for _, m := range docNameRE.FindAllStringSubmatch(span.text, -1) {
				pkg, name := m[1], m[2]
				names, ok := decls[pkg]
				if !ok {
					names = declaredNames(t, pkg)
					decls[pkg] = names
				}
				if names == nil {
					continue // not a package under internal/
				}
				checked++
				if !names[name] {
					t.Errorf("%s:%d: `%s` names %s.%s, which package %s does not declare", doc, span.line, span.text, pkg, name, pkg)
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d pkg.Name references checked; is the span scan broken?", checked)
	}
}

// docSpan is the text of one inline code span and the line it starts on.
type docSpan struct {
	text string
	line int
}

// codeSpans lists the inline code spans of a markdown document, skipping
// fenced code blocks. A span may run across a line break.
func codeSpans(doc string) []docSpan {
	var spans []docSpan
	var prose strings.Builder
	fenced := false
	for _, line := range strings.SplitAfter(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			line = "\n"
		} else if fenced {
			line = "\n"
		}
		prose.WriteString(line)
	}
	text := prose.String()
	for _, loc := range docSpanRE.FindAllStringIndex(text, -1) {
		spans = append(spans, docSpan{text[loc[0]+1 : loc[1]-1], 1 + strings.Count(text[:loc[0]], "\n")})
	}
	return spans
}

// declaredNames returns the names the non-test Go files of internal/pkg
// declare at top level (functions, methods, types, variables and
// constants), with the first segment after "pkg." of each of their string
// literals that begins so, or nil when internal/pkg holds no Go package.
func declaredNames(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names map[string]bool
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if names == nil {
			names = map[string]bool{}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(v, pkg+".") {
					seg, _, _ := strings.Cut(v[len(pkg)+1:], ".")
					names[seg] = true
				}
			}
			return true
		})
	}
	return names
}
