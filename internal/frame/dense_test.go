package frame

import (
	"reflect"
	"testing"

	"needle/internal/corpus"
	"needle/internal/ir"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/region"
)

// corpusRegions returns the regions framed for one profile: its top four
// paths, its top four braids and the hyperblocks grown from their entries,
// and the hyperblock the Sim backend builds at the hottest path's entry.
func corpusRegions(am *pm.Manager, fp *profile.FunctionProfile) []*region.Region {
	var rs []*region.Region
	for _, p := range fp.TopK(4) {
		rs = append(rs, region.FromPath(fp.F, p))
	}
	for i, br := range region.BuildBraids(fp, 0) {
		if i == 4 {
			break
		}
		rs = append(rs, &br.Region, &region.BuildHyperblock(am, fp, br.Entry, 0.1).Region)
	}
	if hot := fp.HottestPath(); hot != nil {
		rs = append(rs, &region.BuildTunedHyperblock(am, fp, fp.F.Blocks[hot.Blocks[0]], 0.1, 0.05).Region)
	}
	return rs
}

// TestBuildMatchesReference frames every corpus region under every option
// combination, all regions of one function through one Scratch, and
// checks each frame against referenceBuild: the ops, their dependences,
// the live values, the carried pairs and their producing ops, and every
// counter must be identical. Each path frame's expansions must match
// referenceExpand's the same way.
func TestBuildMatchesReference(t *testing.T) {
	allOpts := []Options{
		{},
		{Placement: GuardsSerialize},
		{Ordering: MemConservative},
		{Placement: GuardsSerialize, Ordering: MemConservative, UndoOpsPerStore: 3},
	}
	frames := 0
	var sc Scratch
	for _, pr := range corpus.Profiles(t) {
		for _, r := range corpusRegions(pr.AM, pr.FP) {
			for _, opts := range allOpts {
				got, err := Build(pr.AM, r, opts, &sc)
				want, def, werr := referenceBuild(pr.AM, r, opts)
				if (err == nil) != (werr == nil) {
					t.Fatalf("%s %s: error %v, want %v", pr.Name, r.Kind, err, werr)
				}
				if err != nil {
					continue
				}
				frames++
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s %+v: frame differs from the reference", pr.Name, r.Kind, opts)
				}
				if r.Kind == region.KindPath {
					for _, unroll := range []int{2, 3} {
						checkExpandLikeReference(t, pr.Name, got, want, def, unroll)
					}
				}
			}
		}
	}
	if frames < 1000 {
		t.Fatalf("only %d frames compared", frames)
	}
}

func checkExpandLikeReference(t *testing.T, name string, fr, ref *Frame, def map[ir.Reg]int, unroll int) {
	t.Helper()
	got, err := Expand(fr, unroll)
	if err != nil {
		t.Fatal(err)
	}
	want, wantDef, err := referenceExpand(ref, def, unroll)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Carried) != len(want.Carried) {
		t.Fatalf("%s: expanded x%d frame has %d carried pairs, want %d", name, unroll, len(got.Carried), len(want.Carried))
	}
	for i, cp := range got.Carried {
		next, ok := wantDef[cp.Next]
		if !ok {
			next = -1
		}
		if w := want.Carried[i]; cp.Phi != w.Phi || cp.Next != w.Next || cp.NextOp != next {
			t.Fatalf("%s: expanded x%d carried pair %+v, want %+v producing op %d", name, unroll, cp, w, next)
		}
	}
	g, w := *got, *want
	g.Carried, w.Carried = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: expanded x%d frame differs from the reference", name, unroll)
	}
}
