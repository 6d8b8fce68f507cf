package region

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"needle/internal/analysis"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/workloads"
)

// blocksOf returns the blocks of f a profiled path runs through.
func blocksOf(f *ir.Function, p *profile.Path) []*ir.Block {
	bs := make([]*ir.Block, len(p.Blocks))
	for i, b := range p.Blocks {
		bs[i] = f.Blocks[b]
	}
	return bs
}

// referenceBuildBraid is the braid recipe buildBraid must reproduce: gather
// the member blocks in a map, sort them by index with the entry forced first
// and the exit last, and classify branches against the member set.
func referenceBuildBraid(fp *profile.FunctionProfile, paths []*profile.Path) *Braid {
	set := make(map[*ir.Block]bool)
	for _, p := range paths {
		for _, b := range blocksOf(fp.F, p) {
			set[b] = true
		}
	}
	first := blocksOf(fp.F, paths[0])
	entry, exit := first[0], first[len(first)-1]
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
	br := &Braid{Region: newRegion(fp.F, KindBraid, blocks, nil)}
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
			if set[s] && s != br.Entry && b != br.Exit {
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
// same paths: kind, entry, exit, member set, block order and guard counts,
// and that its block and path lists end at their length.
func assertBraidLikeReference(t *testing.T, name string, fp *profile.FunctionProfile, br *Braid) {
	t.Helper()
	want := referenceBuildBraid(fp, br.Paths)
	if br.Kind != want.Kind || br.F != want.F || br.Entry != want.Entry || br.Exit != want.Exit ||
		br.Guards != want.Guards || br.IFs != want.IFs {
		t.Fatalf("%s: braid %s..%s: kind %v guards %d IFs %d, reference %s..%s kind %v guards %d IFs %d",
			name, br.Entry.Name, br.Exit.Name, br.Kind, br.Guards, br.IFs,
			want.Entry.Name, want.Exit.Name, want.Kind, want.Guards, want.IFs)
	}
	if len(br.Blocks) != len(want.Blocks) {
		t.Fatalf("%s: braid at %s has %d blocks, reference %d", name, br.Entry.Name, len(br.Blocks), len(want.Blocks))
	}
	if cap(br.Blocks) != len(br.Blocks) || cap(br.Paths) != len(br.Paths) {
		t.Fatalf("%s: braid at %s: blocks cap %d > len %d or paths cap %d > len %d, so an append overwrites the next braid's",
			name, br.Entry.Name, cap(br.Blocks), len(br.Blocks), cap(br.Paths), len(br.Paths))
	}
	for i, b := range br.Blocks {
		if b != want.Blocks[i] {
			t.Fatalf("%s: braid at %s block %d is %s, reference %s", name, br.Entry.Name, i, b.Name, want.Blocks[i].Name)
		}
	}
	assertMembers(t, name, &br.Region, want.Blocks)
	if got, want := br.BranchMemDeps(), referenceBranchMemDeps(br); got != want {
		t.Fatalf("%s: braid at %s: BranchMemDeps %d, reference %d", name, br.Entry.Name, got, want)
	}
	if got, want := br.LiveOutSpread(), referenceLiveOutSpread(br); got != want {
		t.Fatalf("%s: braid at %s: LiveOutSpread %d, reference %d", name, br.Entry.Name, got, want)
	}
}

// assertBraidsLikeReference checks every braid and path tree of fp, and
// every braid rebuilt from its stored path ranks, against the reference.
func assertBraidsLikeReference(t *testing.T, name string, fp *profile.FunctionProfile) int {
	t.Helper()
	braids := BuildBraids(fp, 0)
	stored := make([]BraidData, len(braids))
	for i, br := range braids {
		assertBraidLikeReference(t, name+" braid", fp, br)
		stored[i] = br.Data(fp)
	}
	rebuilt, err := BraidsFromData(fp, stored)
	if err != nil {
		t.Fatalf("%s: BraidsFromData: %v", name, err)
	}
	for _, re := range rebuilt {
		assertBraidLikeReference(t, name+" BraidsFromData", fp, re)
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

// The region builders as they were before region membership became a
// table indexed by Block.Index, kept as the oracles dense_test.go checks
// the rewritten ones against. Each is verbatim but for its name and two
// adaptations: a region is assembled by newRegion with a nil membership
// table, and code that read the old Region.Set map takes the member map
// (referenceMembers) as an argument instead.

// referenceMembers is the membership map the old newRegion built for a
// region's blocks.
func referenceMembers(blocks []*ir.Block) map[*ir.Block]bool {
	set := make(map[*ir.Block]bool, len(blocks))
	for _, b := range blocks {
		set[b] = true
	}
	return set
}

// referenceLiveValues computes the live-in and live-out registers of the region
// (the ↓,↑ columns): live-ins are registers read inside the region but
// defined outside it (parameters included); live-outs are registers defined
// inside the region that are consumed after it. Function liveness is served
// by am (nil for a one-shot manager).
func referenceLiveValues(r *Region, set map[*ir.Block]bool, am *pm.Manager) (liveIn, liveOut []ir.Reg) {
	nr := r.F.NumRegs()
	defsIn := analysis.NewRegSet(nr)
	for _, b := range r.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasDest() {
				defsIn.Add(in.Dst)
			}
		}
	}
	inSet := analysis.NewRegSet(nr)
	for _, b := range r.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && b == r.Entry {
				// Entry phis draw their value from outside the region at
				// invocation time: every incoming value is a live-in, even
				// when its defining block is inside the region (the region
				// is acyclic, so such a value comes from the previous
				// dynamic instance).
				for _, a := range in.Args {
					inSet.Add(a)
				}
				continue
			}
			in.Uses(func(reg ir.Reg) {
				if !defsIn.Has(reg) {
					inSet.Add(reg)
				}
			})
		}
	}

	lv := pm.Ensure(am).Liveness(r.F)
	outSet := analysis.NewRegSet(nr)
	// A region-defined value is live-out if it is live on any edge leaving
	// the region (including the exit block's successors): word-AND the
	// successor's live-in set against the region's defs.
	for _, b := range r.Blocks {
		for _, s := range b.Succs() {
			if set[s] && b != r.Exit {
				continue
			}
			for w, v := range lv.In[s.Index] {
				outSet[w] |= v & defsIn[w]
			}
			// Phi uses in the successor attributed to this edge.
			for _, phi := range s.Phis() {
				for i, from := range phi.Blocks {
					if from == b && defsIn.Has(phi.Args[i]) {
						outSet.Add(phi.Args[i])
					}
				}
			}
		}
	}
	// Exit via return: the returned value is live-out.
	if t := r.Exit.Term(); t != nil && t.Op == ir.OpRet && len(t.Args) == 1 && defsIn.Has(t.Args[0]) {
		outSet.Add(t.Args[0])
	}

	return inSet.Regs(), outSet.Regs()
}

// referenceBuildHyperblock is buildHyperblock with its region set in a map.
func referenceBuildHyperblock(am *pm.Manager, fp *profile.FunctionProfile, entry *ir.Block, coldFraction, includeFraction float64) *Hyperblock {
	if coldFraction <= 0 {
		coldFraction = 0.1
	}
	f := fp.F
	dom := pm.Ensure(am).Dominators(f)
	isBack := func(u, v *ir.Block) bool { return dom.Dominates(v, u) }

	set := map[*ir.Block]bool{entry: true}
	order := []*ir.Block{entry}
	tailDup := 0
	// Iterate to a fixed point: a successor is admitted once all its forward
	// predecessors are in the region.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(order); i++ {
			b := order[i]
			for _, s := range b.Succs() {
				if set[s] || isBack(b, s) || s == entry {
					continue
				}
				if includeFraction > 0 &&
					float64(fp.BlockCounts[s.Index]) < includeFraction*float64(fp.BlockCounts[entry.Index]) {
					continue // heuristic exclusion: too cold to if-convert
				}
				allIn := true
				for _, p := range s.Preds {
					if isBack(p, s) {
						continue
					}
					if !set[p] {
						allIn = false
						break
					}
				}
				if !allIn {
					continue
				}
				// Never grow past a returning block's successors implicitly;
				// returning blocks simply have none.
				set[s] = true
				order = append(order, s)
				changed = true
			}
		}
	}
	// Count tail-duplication candidates: blocks with at least one forward
	// predecessor inside and at least one outside.
	for _, b := range f.Blocks {
		if set[b] {
			continue
		}
		in, out := false, false
		for _, p := range b.Preds {
			if isBack(p, b) {
				continue
			}
			if set[p] {
				in = true
			} else {
				out = true
			}
		}
		if in && out {
			tailDup++
		}
	}

	hb := &Hyperblock{Region: newRegion(f, KindHyperblock, order, nil), TailDup: tailDup, ColdFraction: coldFraction}
	hb.Entry = entry
	hb.Exit = order[len(order)-1]

	entryCount := fp.BlockCounts[entry.Index]
	threshold := coldFraction * float64(entryCount)
	for _, b := range order {
		t := b.Term()
		if t != nil && t.Op == ir.OpCondBr {
			bothIn := set[t.Blocks[0]] && set[t.Blocks[1]] &&
				!isBack(b, t.Blocks[0]) && !isBack(b, t.Blocks[1])
			if bothIn {
				hb.PredBits++
			}
		}
		if float64(fp.BlockCounts[b.Index]) < threshold {
			hb.ColdOps += b.NumOps()
		}
	}
	return hb
}

// referenceBuildSuperblock grows a superblock from seed using the edge profile.
// Growth follows the highest-frequency successor edge and stops at back
// edges, at blocks already in the trace, at returns, and when the best
// edge's bias falls below minBias (pass 0 to grow maximally).
func referenceBuildSuperblock(fp *profile.FunctionProfile, seed *ir.Block, minBias float64) *Superblock {
	var blocks []*ir.Block
	in := make(map[*ir.Block]bool)
	cur := seed
	for cur != nil && !in[cur] {
		blocks = append(blocks, cur)
		in[cur] = true
		t := cur.Term()
		if t == nil || t.Op == ir.OpRet {
			break
		}
		var best *ir.Block
		var bestCount, total int64
		for _, s := range t.Blocks {
			c := fp.EdgeCounts[profile.Edge{From: cur.Index, To: s.Index}]
			total += c
			if best == nil || c > bestCount {
				best, bestCount = s, c
			}
		}
		if best == nil || bestCount == 0 {
			break
		}
		if minBias > 0 && float64(bestCount) < minBias*float64(total) {
			break
		}
		if fp.DAG.IsBackEdge(cur, best) {
			break
		}
		cur = best
	}

	sb := &Superblock{Region: newRegion(fp.F, KindSuperblock, blocks, nil)}
	for _, p := range fp.Paths {
		path := blocksOf(fp.F, p)
		for i := 0; len(blocks) > 0 && i+len(blocks) <= len(path); i++ {
			sb.Feasible = sb.Feasible || slices.Equal(path[i:i+len(blocks)], blocks)
		}
	}
	if hot := fp.HottestPath(); hot != nil {
		sb.HottestPath = slices.Equal(blocks, blocksOf(fp.F, hot))
	}
	return sb
}

// referenceBranchMemDeps counts memory operations in the braid that remain
// control-dependent on an internal IF: memory ops in blocks that are not
// on every merged path (Section IV-B "Braids enable memory speculation").
// Memory ops in common blocks become control independent once the guards
// speculate the region as a unit.
func referenceBranchMemDeps(br *Braid) int {
	if len(br.Paths) == 0 {
		return 0
	}
	common := make(map[*ir.Block]int)
	for _, p := range br.Paths {
		seen := make(map[*ir.Block]bool)
		for _, b := range blocksOf(br.F, p) {
			if !seen[b] {
				seen[b] = true
				common[b]++
			}
		}
	}
	n := 0
	for _, b := range br.Blocks {
		if common[b] == len(br.Paths) {
			continue // on every path: control independent after framing
		}
		for _, in := range b.Instrs {
			if in.Op.IsMemory() {
				n++
			}
		}
	}
	return n
}

// referenceLiveOutSpread returns how many distinct exit blocks a merged region's
// constituent paths end at: 1 for braids by construction, possibly more
// for path trees (each exit implies its own live-out set).
func referenceLiveOutSpread(br *Braid) int {
	exits := make(map[*ir.Block]bool)
	for _, p := range br.Paths {
		if len(p.Blocks) > 0 {
			exits[br.F.Blocks[p.Blocks[len(p.Blocks)-1]]] = true
		}
	}
	return len(exits)
}

// referenceBuildBraids and referenceBuildPathTrees are BuildBraids and
// BuildPathTrees as they were before the groups were counted then filled,
// verbatim but for their names and for merging each group with
// referenceBuildBraid.

// referenceBuildBraids merges every executed path of the profile into braids keyed by
// shared entry and exit blocks, ranked by total coverage (weight) descending.
// maxPaths bounds how many paths merge into one braid (<=0 means unlimited);
// the paper merges all overlapping hot paths, which is the default used by
// the pipeline.
func referenceBuildBraids(fp *profile.FunctionProfile, maxPaths int) []*Braid {
	groups := make(map[braidKey][]*profile.Path)
	var order []braidKey
	// fp.Paths is already ranked by weight, so each group's slice is too.
	for _, p := range fp.Paths {
		if len(p.Blocks) == 0 {
			continue
		}
		k := braidKey{p.Blocks[0], p.Blocks[len(p.Blocks)-1]}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		if maxPaths > 0 && len(groups[k]) >= maxPaths {
			continue
		}
		groups[k] = append(groups[k], p)
	}

	braids := make([]*Braid, 0, len(order))
	for _, k := range order {
		braids = append(braids, referenceBuildBraid(fp, groups[k]))
	}
	sort.SliceStable(braids, func(i, j int) bool {
		return braidWeight(braids[i]) > braidWeight(braids[j])
	})
	return braids
}

// referenceBuildPathTrees implements the DySER-style merge policy the paper
// contrasts braids with (Section IV-B "Relationship to Hyperblocks,
// Path-Trees"): paths are grouped by shared *entry only*, so a tree may
// fan out to different exit blocks with different live-out sets — the
// property that forces extra live-out plumbing and makes the paper prefer
// braids. Returned trees are ranked by total weight.
func referenceBuildPathTrees(fp *profile.FunctionProfile, maxPaths int) []*Braid {
	groups := make(map[int32][]*profile.Path)
	var order []int32
	for _, p := range fp.Paths {
		if len(p.Blocks) == 0 {
			continue
		}
		k := p.Blocks[0]
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		if maxPaths > 0 && len(groups[k]) >= maxPaths {
			continue
		}
		groups[k] = append(groups[k], p)
	}
	trees := make([]*Braid, 0, len(order))
	for _, k := range order {
		trees = append(trees, referenceBuildBraid(fp, groups[k]))
	}
	sort.SliceStable(trees, func(i, j int) bool {
		return braidWeight(trees[i]) > braidWeight(trees[j])
	})
	return trees
}
