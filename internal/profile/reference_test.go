package profile

import (
	"fmt"
	"sort"
	"testing"

	"needle/internal/ballarus"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/workloads"
)

// referenceRankCounts is the per-path recipe rankCounts must reproduce:
// decode every path into its own slice, walk every instruction of it for
// the sums, and sort by weight descending, then ID ascending.
func referenceRankCounts(fp *FunctionProfile, counts map[int64]int64) ([]*Path, int64, error) {
	var paths []*Path
	var total int64
	for id, freq := range counts {
		blocks, err := fp.DAG.DecodeAppend(nil, id)
		if err != nil {
			return nil, 0, err
		}
		p := &Path{ID: id, Freq: freq, Blocks: blocks, Ops: ballarus.PathOps(fp.F, blocks)}
		p.Weight = p.Freq * p.Ops
		for _, i := range blocks {
			b := fp.F.Blocks[i]
			if t := b.Term(); t != nil && t.Op == ir.OpCondBr {
				p.Branches++
			}
			for _, in := range b.Instrs {
				if in.Op.IsMemory() {
					p.MemOps++
				}
			}
		}
		paths = append(paths, p)
		total += p.Weight
	}
	sort.Slice(paths, func(i, j int) bool {
		if paths[i].Weight != paths[j].Weight {
			return paths[i].Weight > paths[j].Weight
		}
		return paths[i].ID < paths[j].ID
	})
	return paths, total, nil
}

// assertRankedLikeReference compares fp's ranked paths with the reference
// recipe over the same counts, field by field and block by block, and
// checks that no path's blocks can be grown into a neighbour's.
func assertRankedLikeReference(t *testing.T, name string, fp *FunctionProfile) {
	t.Helper()
	counts := make(map[int64]int64, len(fp.Paths))
	for _, p := range fp.Paths {
		counts[p.ID] = p.Freq
	}
	want, total, err := referenceRankCounts(fp, counts)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if fp.TotalWeight != total {
		t.Fatalf("%s: TotalWeight %d, reference %d", name, fp.TotalWeight, total)
	}
	if len(fp.Paths) != len(want) {
		t.Fatalf("%s: %d paths, reference %d", name, len(fp.Paths), len(want))
	}
	for i, p := range fp.Paths {
		w := want[i]
		if p.ID != w.ID || p.Freq != w.Freq || p.Ops != w.Ops || p.Weight != w.Weight ||
			p.Branches != w.Branches || p.MemOps != w.MemOps {
			t.Fatalf("%s: rank %d is %+v, reference %+v", name, i, *p, *w)
		}
		if len(p.Blocks) != len(w.Blocks) {
			t.Fatalf("%s: path %d has %d blocks, reference %d", name, p.ID, len(p.Blocks), len(w.Blocks))
		}
		for j := range p.Blocks {
			if p.Blocks[j] != w.Blocks[j] {
				t.Fatalf("%s: path %d block %d is %d, reference %d", name, p.ID, j, p.Blocks[j], w.Blocks[j])
			}
		}
		if cap(p.Blocks) != len(p.Blocks) {
			t.Fatalf("%s: path %d blocks have cap %d > len %d", name, p.ID, cap(p.Blocks), len(p.Blocks))
		}
	}
}

// assertFinishAndFromDataMatchReference checks a collector-built profile
// and its rehydration from its stored path trace against the reference.
func assertFinishAndFromDataMatchReference(t *testing.T, name string, fp *FunctionProfile) {
	t.Helper()
	assertRankedLikeReference(t, name+" (Finish)", fp)
	d, err := fp.Data()
	if err != nil {
		t.Fatalf("%s: Data: %v", name, err)
	}
	re, err := FromData(nil, fp.F, d)
	if err != nil {
		t.Fatalf("%s: FromData: %v", name, err)
	}
	assertRankedLikeReference(t, name+" (FromData)", re)
	for _, p := range fp.TopK(3) {
		got, gok := fp.SequenceBias(p.ID)
		want, wok := referenceSequenceBias(fp, p.ID)
		if got != want || gok != wok {
			t.Fatalf("%s: SequenceBias(%d) = %+v, %v; reference %+v, %v", name, p.ID, got, gok, want, wok)
		}
	}
}

// referenceSequenceBias is SequenceBias one occurrence at a time: each
// occurrence of the path that has a successor in the trace counts that
// successor.
func referenceSequenceBias(fp *FunctionProfile, pathID int64) (SequenceStats, bool) {
	var ids []int64
	for _, run := range fp.Runs {
		for range run.Len {
			ids = append(ids, fp.Paths[run.Rank].ID)
		}
	}
	succ := map[int64]int64{}
	var follows int64
	for i := 0; i+1 < len(ids); i++ {
		if ids[i] == pathID {
			succ[ids[i+1]]++
			follows++
		}
	}
	if follows == 0 {
		return SequenceStats{PathID: pathID}, false
	}
	st := SequenceStats{PathID: pathID, Follows: follows}
	for id, c := range succ {
		if c > st.BestCount || c == st.BestCount && id < st.BestNext {
			st.BestNext, st.BestCount = id, c
		}
	}
	st.Bias = float64(st.BestCount) / float64(follows)
	st.SamePath = st.BestNext == pathID
	byID := make(map[int64]*Path, len(fp.Paths))
	for _, p := range fp.Paths {
		byID[p.ID] = p
	}
	self, next := byID[pathID], byID[st.BestNext]
	if self != nil && next != nil && self.Ops > 0 {
		st.GrowthOps = self.Ops + next.Ops
		st.ExpandFrac = float64(st.GrowthOps) / float64(self.Ops)
	}
	return st, true
}

func TestRankCountsMatchesReferenceWorkloads(t *testing.T) {
	all := workloads.All()
	if len(all) < 29 {
		t.Fatalf("workload suite shrank: %d workloads, want >= 29", len(all))
	}
	for _, w := range all {
		f, args, mem := w.Instance(0) // default size
		fp, err := CollectFunction(nil, f, args, mem, true, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		assertFinishAndFromDataMatchReference(t, w.Name, fp)
	}
}

func TestRankCountsMatchesReferenceRandomPrograms(t *testing.T) {
	profiled := 0
	for seed := int64(0); seed < 300; seed++ {
		p := irgen.Generate(seed, irgen.Config{})
		fp, err := CollectFunction(nil, p.F, []uint64{interp.IBits(seed)}, p.NewMem(), true, 1<<22)
		if err != nil {
			continue // faulting programs leave no profile to rank
		}
		assertFinishAndFromDataMatchReference(t, fmt.Sprintf("seed %d", seed), fp)
		profiled++
	}
	if profiled < 250 {
		t.Fatalf("only %d of 300 programs profiled", profiled)
	}
}
