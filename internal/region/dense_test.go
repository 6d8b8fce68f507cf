package region

import (
	"slices"
	"testing"

	"needle/internal/corpus"
	"needle/internal/ir"
	"needle/internal/pm"
	"needle/internal/profile"
)

// assertMembers checks that r contains exactly the blocks of want among
// its function's blocks.
func assertMembers(t *testing.T, name string, r *Region, want []*ir.Block) {
	t.Helper()
	set := referenceMembers(want)
	for _, b := range r.F.Blocks {
		if r.Contains(b) != set[b] {
			t.Fatalf("%s: %s region at %s: Contains(%s) = %t", name, r.Kind, r.Entry.Name, b.Name, r.Contains(b))
		}
	}
}

// assertLiveValuesLikeReference checks LiveValues, through the shared
// sets, against referenceLiveValues.
func assertLiveValuesLikeReference(t *testing.T, name string, am *pm.Manager, r *Region, live *LiveSets) {
	t.Helper()
	r.LiveValues(am, live)
	wantIn, wantOut := referenceLiveValues(r, referenceMembers(r.Blocks), am)
	if got := live.In.Regs(); !slices.Equal(got, wantIn) {
		t.Fatalf("%s: %s region at %s: live-ins %v, reference %v", name, r.Kind, r.Entry.Name, got, wantIn)
	}
	if got := live.Out.Regs(); !slices.Equal(got, wantOut) {
		t.Fatalf("%s: %s region at %s: live-outs %v, reference %v", name, r.Kind, r.Entry.Name, got, wantOut)
	}
}

// TestRegionsMatchReference builds, for every corpus program, the regions
// the pipeline and the tables build — top paths, braids and path trees
// (ranked, whole and capped at two paths),
// hyperblocks (plain and tuned) and superblocks (grown maximally and under
// a bias floor) seeded at every braid entry — and checks each against the
// reference builders: blocks, membership, live values, and every count.
func TestRegionsMatchReference(t *testing.T) {
	regions := 0
	var live LiveSets
	for _, pr := range corpus.Profiles(t) {
		am, fp := pr.AM, pr.FP
		for _, p := range fp.TopK(8) {
			r := FromPath(fp.F, p)
			assertMembers(t, pr.Name, r, blocksOf(fp.F, p))
			assertLiveValuesLikeReference(t, pr.Name, am, r, &live)
			regions++
		}
		assertBraidsLikeReference(t, pr.Name, fp)
		for _, maxPaths := range []int{0, 2} {
			assertRankedLikeReference(t, pr.Name+" braids", BuildBraids(fp, maxPaths), referenceBuildBraids(fp, maxPaths))
			assertRankedLikeReference(t, pr.Name+" path trees", BuildPathTrees(fp, maxPaths), referenceBuildPathTrees(fp, maxPaths))
		}
		for _, br := range BuildBraids(fp, 0) {
			assertLiveValuesLikeReference(t, pr.Name, am, &br.Region, &live)
			for _, include := range []float64{0, 0.05} {
				hb := buildHyperblock(am, fp, br.Entry, 0.1, include)
				want := referenceBuildHyperblock(am, fp, br.Entry, 0.1, include)
				if !slices.Equal(hb.Blocks, want.Blocks) || hb.Entry != want.Entry || hb.Exit != want.Exit ||
					hb.PredBits != want.PredBits || hb.ColdOps != want.ColdOps || hb.TailDup != want.TailDup ||
					hb.ColdFraction != want.ColdFraction {
					t.Fatalf("%s: hyperblock at %s differs from the reference", pr.Name, br.Entry.Name)
				}
				assertMembers(t, pr.Name, &hb.Region, want.Blocks)
				assertLiveValuesLikeReference(t, pr.Name, am, &hb.Region, &live)
			}
			for _, bias := range []float64{0, 0.6} {
				assertSuperblockLikeReference(t, pr.Name, fp, br.Entry, bias)
			}
			regions += 5
		}
	}
	if regions < 2000 {
		t.Fatalf("only %d regions compared", regions)
	}
}

// assertRankedLikeReference checks that two braid rankings merge the same
// paths in the same order.
func assertRankedLikeReference(t *testing.T, name string, got, want []*Braid) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d braids, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].Paths, want[i].Paths) {
			t.Fatalf("%s: braid %d merges other paths than the reference", name, i)
		}
	}
}

func assertSuperblockLikeReference(t *testing.T, name string, fp *profile.FunctionProfile, seed *ir.Block, bias float64) {
	t.Helper()
	sb, want := BuildSuperblock(fp, seed, bias), referenceBuildSuperblock(fp, seed, bias)
	if !slices.Equal(sb.Blocks, want.Blocks) || sb.Feasible != want.Feasible || sb.HottestPath != want.HottestPath {
		t.Fatalf("%s: superblock at %s (bias %v) differs from the reference", name, seed.Name, bias)
	}
	if len(sb.Blocks) > 0 {
		assertMembers(t, name, &sb.Region, want.Blocks)
	}
}
