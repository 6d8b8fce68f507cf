package region

import (
	"fmt"
	"sort"
	"testing"

	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/profile"
	"needle/internal/workloads"
)

// referenceBuildBraid is the braid recipe buildBraid must reproduce: gather
// the member blocks in a map, sort them by index with the entry forced first
// and the exit last, and classify branches against the region's Set.
func referenceBuildBraid(fp *profile.FunctionProfile, paths []*profile.Path) *Braid {
	set := make(map[*ir.Block]bool)
	for _, p := range paths {
		for _, b := range p.Blocks {
			set[b] = true
		}
	}
	entry := paths[0].Blocks[0]
	exit := paths[0].Blocks[len(paths[0].Blocks)-1]
	blocks := make([]*ir.Block, 0, len(set))
	for b := range set {
		blocks = append(blocks, b)
	}
	rank := func(b *ir.Block) int {
		switch b {
		case entry:
			return 0
		case exit:
			return 2
		}
		return 1
	}
	sort.Slice(blocks, func(i, j int) bool {
		bi, bj := blocks[i], blocks[j]
		if ri, rj := rank(bi), rank(bj); ri != rj {
			return ri < rj
		}
		return bi.Index < bj.Index
	})
	br := &Braid{Region: *newRegion(fp.F, KindBraid, blocks)}
	br.Entry = entry
	br.Exit = exit
	br.Paths = paths
	for _, b := range br.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		inside := 0
		for _, s := range t.Blocks {
			if br.Set[s] && s != br.Entry && b != br.Exit {
				inside++
			}
		}
		if inside == 2 {
			br.IFs++
		} else {
			br.Guards++
		}
	}
	return br
}

// assertBraidLikeReference compares br with the reference built from the
// same paths: kind, entry, exit, member set, block order and guard counts.
func assertBraidLikeReference(t *testing.T, name string, fp *profile.FunctionProfile, br *Braid) {
	t.Helper()
	want := referenceBuildBraid(fp, br.Paths)
	if br.Kind != want.Kind || br.F != want.F || br.Entry != want.Entry || br.Exit != want.Exit ||
		br.Guards != want.Guards || br.IFs != want.IFs {
		t.Fatalf("%s: braid %s..%s: kind %v guards %d IFs %d, reference %s..%s kind %v guards %d IFs %d",
			name, br.Entry.Name, br.Exit.Name, br.Kind, br.Guards, br.IFs,
			want.Entry.Name, want.Exit.Name, want.Kind, want.Guards, want.IFs)
	}
	if len(br.Blocks) != len(want.Blocks) || len(br.Set) != len(want.Set) {
		t.Fatalf("%s: braid at %s has %d blocks (set %d), reference %d (set %d)",
			name, br.Entry.Name, len(br.Blocks), len(br.Set), len(want.Blocks), len(want.Set))
	}
	for i, b := range br.Blocks {
		if b != want.Blocks[i] {
			t.Fatalf("%s: braid at %s block %d is %s, reference %s", name, br.Entry.Name, i, b.Name, want.Blocks[i].Name)
		}
		if !br.Set[b] {
			t.Fatalf("%s: braid at %s: block %s missing from Set", name, br.Entry.Name, b.Name)
		}
	}
}

// assertBraidsLikeReference checks every braid and path tree of fp, and
// every braid rebuilt from its stored path IDs, against the reference.
func assertBraidsLikeReference(t *testing.T, name string, fp *profile.FunctionProfile) int {
	t.Helper()
	braids := BuildBraids(fp, 0)
	for _, br := range braids {
		assertBraidLikeReference(t, name+" braid", fp, br)
		re, err := BraidFromData(fp, br.Data())
		if err != nil {
			t.Fatalf("%s: BraidFromData: %v", name, err)
		}
		assertBraidLikeReference(t, name+" BraidFromData", fp, re)
	}
	for _, tr := range BuildPathTrees(fp, 0) {
		assertBraidLikeReference(t, name+" path tree", fp, tr)
	}
	return len(braids)
}

// assertProfilesBraidLikeReference runs the braid comparison over a
// collector-built profile and over its rehydration from serialized counts.
func assertProfilesBraidLikeReference(t *testing.T, name string, fp *profile.FunctionProfile) int {
	t.Helper()
	n := assertBraidsLikeReference(t, name+" (Finish)", fp)
	d, err := fp.Data()
	if err != nil {
		t.Fatalf("%s: Data: %v", name, err)
	}
	re, err := profile.FromData(nil, fp.F, d)
	if err != nil {
		t.Fatalf("%s: FromData: %v", name, err)
	}
	return n + assertBraidsLikeReference(t, name+" (FromData)", re)
}

func TestBuildBraidMatchesReferenceWorkloads(t *testing.T) {
	all := workloads.All()
	if len(all) < 29 {
		t.Fatalf("workload suite shrank: %d workloads, want >= 29", len(all))
	}
	for _, w := range all {
		f, args, mem := w.Instance(0) // default size
		fp, err := profile.CollectFunction(nil, f, args, mem, true, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if assertProfilesBraidLikeReference(t, w.Name, fp) == 0 {
			t.Errorf("%s: no braids formed", w.Name)
		}
	}
}

func TestBuildBraidMatchesReferenceRandomPrograms(t *testing.T) {
	braids := 0
	for seed := int64(0); seed < 300; seed++ {
		p := irgen.Generate(seed, irgen.Config{})
		fp, err := profile.CollectFunction(nil, p.F, []uint64{interp.IBits(seed)}, p.NewMem(), true, 1<<22)
		if err != nil {
			continue // faulting programs leave no profile
		}
		braids += assertProfilesBraidLikeReference(t, fmt.Sprintf("seed %d", seed), fp)
	}
	if braids < 300 {
		t.Fatalf("only %d braids compared", braids)
	}
}
