package frame

import (
	"slices"
	"testing"

	"needle/internal/passes"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/region"
	"needle/internal/workloads"
)

// simRegions returns the regions the Sim backend frames for a profile: the
// top three paths, the top three braids, and the hyperblock at the hottest
// path's entry with the default cold fraction.
func simRegions(am *pm.Manager, fp *profile.FunctionProfile) []*region.Region {
	var rs []*region.Region
	for _, p := range fp.TopK(3) {
		rs = append(rs, region.FromPath(fp.F, p))
	}
	braids := region.BuildBraids(fp, 0)
	for i := 0; i < 3 && i < len(braids); i++ {
		rs = append(rs, &braids[i].Region)
	}
	hb := region.BuildTunedHyperblock(am, fp, fp.F.Blocks[fp.HottestPath().Blocks[0]], 0.1, 0.05)
	return append(rs, &hb.Region)
}

// TestDepsArenaWindows checks every frame the Sim backend builds on the
// workloads, under both memory orderings and both guard placements: each
// op's Deps is a window of the shared arena capped at its length, with no
// duplicate, so an append to one op's Deps copies and leaves the next op's
// unchanged.
func TestDepsArenaWindows(t *testing.T) {
	all := workloads.All()
	if len(all) < 29 {
		t.Fatalf("workload suite shrank: %d workloads, want >= 29", len(all))
	}
	frames := 0
	for _, w := range all {
		f, args, memory := w.Instance(0)
		f, err := passes.InlineAll(f)
		if err != nil {
			t.Fatalf("%s: InlineAll: %v", w.Name, err)
		}
		am := pm.NewManager()
		fp, err := profile.CollectFunction(am, f, args, memory, true, 0)
		if err != nil {
			t.Fatalf("%s: CollectFunction: %v", w.Name, err)
		}
		for ri, r := range simRegions(am, fp) {
			for _, ord := range []MemOrdering{MemSpeculative, MemConservative} {
				for _, pl := range []GuardPlacement{GuardsAsync, GuardsSerialize} {
					fr, err := Build(am, r, Options{Ordering: ord, Placement: pl})
					if err != nil {
						continue // unframeable candidate, skipped by the backend too
					}
					frames++
					checkDepsWindows(t, w.Name, ri, fr)
				}
			}
		}
	}
	if frames < 29*4*4 {
		t.Fatalf("only %d frames checked", frames)
	}
}

func checkDepsWindows(t *testing.T, name string, ri int, fr *Frame) {
	t.Helper()
	before := make([][]int, len(fr.Ops))
	for i, op := range fr.Ops {
		if cap(op.Deps) != len(op.Deps) {
			t.Fatalf("%s region %d op %d: Deps has len %d, cap %d", name, ri, i, len(op.Deps), cap(op.Deps))
		}
		sorted := slices.Clone(op.Deps)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) != len(op.Deps) {
			t.Fatalf("%s region %d op %d: duplicate dependence in %v", name, ri, i, op.Deps)
		}
		before[i] = slices.Clone(op.Deps)
	}
	for i := range fr.Ops {
		_ = append(fr.Ops[i].Deps, -1)
	}
	for i, op := range fr.Ops {
		if !slices.Equal(op.Deps, before[i]) {
			t.Fatalf("%s region %d op %d: Deps %v became %v after appending to other ops", name, ri, i, before[i], op.Deps)
		}
	}
}
