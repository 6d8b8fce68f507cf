package cgra

import (
	"reflect"
	"testing"

	"needle/internal/corpus"
	"needle/internal/frame"
	"needle/internal/region"
)

// TestScheduleMatchesReference schedules the frames of every corpus
// program's top paths, top braids and Sim-backend hyperblock, under both
// memory orderings and both routing models, and checks each schedule
// against referenceSchedule field by field.
func TestScheduleMatchesReference(t *testing.T) {
	uniform := DefaultConfig()
	uniform.UniformRouting = true
	narrow := DefaultConfig()
	narrow.Rows, narrow.Cols, narrow.MemPorts = 2, 3, 1
	scheds := 0
	var sc frame.Scratch
	for _, pr := range corpus.Profiles(t) {
		fp := pr.FP
		var rs []*region.Region
		for _, p := range fp.TopK(3) {
			rs = append(rs, region.FromPath(fp.F, p))
		}
		for i, br := range region.BuildBraids(fp, 0) {
			if i == 3 {
				break
			}
			rs = append(rs, &br.Region)
		}
		rs = append(rs, &region.BuildTunedHyperblock(pr.AM, fp, fp.F.Blocks[fp.HottestPath().Blocks[0]], 0.1, 0.05).Region)
		for _, r := range rs {
			for _, ord := range []frame.MemOrdering{frame.MemSpeculative, frame.MemConservative} {
				fr, err := frame.Build(pr.AM, r, frame.Options{Ordering: ord}, &sc)
				if err != nil {
					continue
				}
				for _, cfg := range []Config{DefaultConfig(), uniform, narrow} {
					got, want := Schedule(fr, cfg), referenceSchedule(fr, cfg)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: schedule %+v, want %+v", pr.Name, r.Kind, *got, *want)
					}
					scheds++
				}
			}
		}
	}
	if scheds < 3000 {
		t.Fatalf("only %d schedules compared", scheds)
	}
}
