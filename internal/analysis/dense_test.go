package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/workloads"
)

// denseCorpus returns the functions the dense analyses are checked on:
// every checked-in .nir program, and every function reachable from the 29
// workloads' hot functions and from 240 irgen programs in two shapes (the
// default, and the deeper one the service benchmark sends).
func denseCorpus(t *testing.T) []*ir.Function {
	t.Helper()
	fs := nirCorpus(t)
	for _, w := range workloads.All() {
		p, err := w.Program(0)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, ir.ModuleOf(p.F).Funcs...)
	}
	pool := irgen.Config{MaxDepth: 3, MaxStmts: 8, MaxLoopTrip: 24, MemWords: 1024}
	for seed := int64(1); seed <= 120; seed++ {
		fs = append(fs, ir.ModuleOf(irgen.Generate(seed, irgen.DefaultConfig()).F).Funcs...)
		fs = append(fs, ir.ModuleOf(irgen.Generate(seed, pool).F).Funcs...)
	}
	return fs
}

// TestDenseAnalysesMatchReference checks every rewritten analysis against
// its previous implementation (reference_test.go) on the corpus: the
// reverse postorder, the dominator tree, the back edges, the natural
// loops, the post-dominator tree, control dependence, liveness, the SCCP
// fixpoint and the memory-dependence forms must be identical.
func TestDenseAnalysesMatchReference(t *testing.T) {
	for _, f := range denseCorpus(t) {
		if got, want := ReversePostorder(f), referenceReversePostorder(f); !slices.Equal(got, want) {
			t.Fatalf("%s: reverse postorder %v, want %v", f.Name, got, want)
		}
		dom, rdom := Dominators(f), referenceDominators(f)
		if !slices.Equal(dom.idom, rdom.idom) || !slices.Equal(dom.rpo, rdom.rpo) || !slices.Equal(dom.rpoN, rdom.rpoN) {
			t.Fatalf("%s: dominator tree differs:\nidom %v\nwant %v", f.Name, dom.idom, rdom.idom)
		}
		if got, want := BackEdges(f, dom), referenceBackEdges(f, rdom); !slices.Equal(got, want) {
			t.Fatalf("%s: back edges %v, want %v", f.Name, got, want)
		}
		loops, rloops := NaturalLoops(f, dom), referenceNaturalLoops(f, rdom)
		if len(loops) != len(rloops) {
			t.Fatalf("%s: %d natural loops, want %d", f.Name, len(loops), len(rloops))
		}
		for i, l := range loops {
			if l.Header != rloops[i].Header {
				t.Fatalf("%s: loop %d has header %s, want %s", f.Name, i, l.Header.Name, rloops[i].Header.Name)
			}
			for _, b := range f.Blocks {
				if l.Contains(b) != rloops[i].Blocks[b] {
					t.Fatalf("%s: loop at %s: Contains(%s) = %t", f.Name, l.Header.Name, b.Name, l.Contains(b))
				}
			}
		}

		pd, rpd := PostDominators(f), referencePostDominators(f)
		if !reflect.DeepEqual(pd.ipdom, rpd.ipdom) || !reflect.DeepEqual(pd.order, rpd.order) ||
			!reflect.DeepEqual(pd.rpoN, rpd.rpoN) || pd.exit != rpd.exit {
			t.Fatalf("%s: post-dominator tree differs:\nipdom %v\nwant  %v", f.Name, pd.ipdom, rpd.ipdom)
		}

		cd, rcd := ControlDependents(f, pd), referenceControlDependents(f, rpd)
		for _, b := range f.Blocks {
			got, want := cd.Of(b), rcd[b]
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s.%s: control dependents %v, want %v", f.Name, b.Name, got, want)
			}
		}

		lv, rlv := ComputeLiveness(f), referenceComputeLiveness(f)
		for i := range f.Blocks {
			if !reflect.DeepEqual(lv.In[i], rlv.In[i]) || !reflect.DeepEqual(lv.Out[i], rlv.Out[i]) {
				t.Fatalf("%s.%s: liveness differs: in %v out %v, want in %v out %v", f.Name, f.Blocks[i].Name,
					lv.In[i].Regs(), lv.Out[i].Regs(), rlv.In[i].Regs(), rlv.Out[i].Regs())
			}
		}

		sc, rsc := ComputeSCCP(f), referenceComputeSCCP(f)
		if !reflect.DeepEqual(sc.values, rsc.values) || !reflect.DeepEqual(sc.blockExec, rsc.blockExec) {
			t.Fatalf("%s: SCCP lattice or block executability differs", f.Name)
		}
		for _, b := range f.Blocks {
			got := sc.edgeExec[sc.edgeOff[b.Index]:sc.edgeOff[b.Index+1]]
			if want := rsc.edgeExec[b.Index]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s.%s: SCCP edge executability %v, want %v", f.Name, b.Name, got, want)
			}
		}

		md, rmd := ComputeMemDep(f), referenceComputeMemDep(f)
		if !reflect.DeepEqual(md.have, rmd.have) || !reflect.DeepEqual(md.loadDerived, rmd.loadDerived) {
			t.Fatalf("%s: MemDep coverage or load-derived marks differ", f.Name)
		}
		for r := range md.forms {
			got, want := md.forms[r], rmd.forms[r]
			if got.Offset != want.Offset || !sameBases(got.Bases, want.Bases) {
				t.Fatalf("%s: address form of r%d is %+v, want %+v", f.Name, r, got, want)
			}
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
