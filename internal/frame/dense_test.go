package frame

import (
	"reflect"
	"testing"

	"needle/internal/passes"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/region"
	"needle/internal/workloads"
)

// TestBuildMatchesReference builds, for every workload, frames of its top
// paths, braids and the hyperblocks grown from the braids' entries, under
// every option combination, and checks each against referenceBuild: the
// ops, their dependences, the live values, the carried pairs, the def map
// and every counter must be identical.
func TestBuildMatchesReference(t *testing.T) {
	allOpts := []Options{
		{},
		{Placement: GuardsSerialize},
		{Ordering: MemConservative},
		{Placement: GuardsSerialize, Ordering: MemConservative, UndoOpsPerStore: 3},
	}
	for _, w := range workloads.All() {
		f, args, mem := w.Instance(0)
		f, err := passes.InlineAll(f)
		if err != nil {
			t.Fatal(err)
		}
		am := pm.NewManager()
		fp, err := profile.CollectFunction(am, f, args, mem, false, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var regions []*region.Region
		for i, p := range fp.Paths {
			if i == 4 {
				break
			}
			regions = append(regions, region.FromPath(f, p))
		}
		for _, br := range region.BuildBraids(fp, 4) {
			regions = append(regions, &br.Region)
			regions = append(regions, &region.BuildHyperblock(am, fp, br.Entry, 0.1).Region)
		}
		for _, r := range regions {
			for _, opts := range allOpts {
				got, err := Build(am, r, opts)
				want, werr := referenceBuild(am, r, opts)
				if (err == nil) != (werr == nil) {
					t.Fatalf("%s %s: error %v, want %v", w.Name, r.Kind, err, werr)
				}
				if err != nil {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s %+v: frame differs from the reference", w.Name, r.Kind, opts)
				}
			}
		}
	}
}
