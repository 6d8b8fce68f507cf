package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"needle/internal/corpus"
	"needle/internal/energy"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/profile"
	"needle/internal/region"
	"needle/internal/spec"
	"needle/internal/wire"
	"needle/internal/workloads"
)

// refTarget is a target in the form the reference replay reads: acceptance,
// opportunity and per-path op counts keyed by Ball-Larus path ID. The
// region, frame and schedule come from the rank-indexed target under test.
type refTarget struct {
	*Target
	accepts map[int64]bool
	isOpp   map[int64]bool
	ops     map[int64]int64
}

func newRefTarget(fp *profile.FunctionProfile, tgt *Target, accepts func(p *profile.Path) bool) refTarget {
	rt := refTarget{Target: tgt, accepts: map[int64]bool{}, isOpp: map[int64]bool{}, ops: map[int64]int64{}}
	for _, p := range fp.Paths {
		rt.accepts[p.ID] = accepts(p)
		rt.ops[p.ID] = p.Ops
		if tgt.fullExec {
			rt.isOpp[p.ID] = rt.accepts[p.ID]
		} else {
			rt.isOpp[p.ID] = len(p.Blocks) > 0 && fp.F.Blocks[p.Blocks[0]] == tgt.Region.Entry
		}
	}
	return rt
}

// referenceEvaluate is the replay of one target with targets keyed by path
// ID: three map lookups per occurrence, whatever the path-ID space,
// occurrence i's branch history read from hists[i], not derived, and every
// occurrence's host cycles read from the expanded varints (occCycles), not
// from run sums. Every lane of Evaluate must match it exactly.
func referenceEvaluate(tr *Trace, hists []uint64, tgt refTarget, pred spec.Predictor, cfg Config) Result {
	res := Result{
		Predictor:        pred.Name(),
		BaselineCycles:   tr.BaselineCycles,
		BaselineEnergyPJ: tr.BaselineEnergyPJ,
	}
	if tr.BaselineCycles == 0 {
		return res
	}
	perOpPJ := energy.PerOpPJ(cfg.CPU, tr.Mix, tr.CacheStats)
	oracle, isOracle := pred.(*spec.Oracle)
	var cycles, acceleratedWeight int64
	energyPJ := tr.BaselineEnergyPJ
	reconfigured, inRun := false, false
	ranks := ranksOf(tr.Profile.Runs)
	for i, oc := range occCycles(tr) {
		id := tr.Profile.Paths[ranks[i]].ID
		if !tgt.isOpp[id] {
			cycles += oc
			inRun = false
			continue
		}
		res.Opportunities++
		success := tgt.accepts[id]
		if isOracle {
			oracle.SetNext(success)
		}
		if pred.Predict(hists[i]) {
			res.Invocations++
			if !reconfigured {
				cycles += cfg.CGRA.ReconfigCycles
				reconfigured = true
			}
			occOps := tgt.ops[id]
			if success {
				res.Successes++
				if inRun {
					cycles += tgt.Sched.II
				} else {
					cycles += tgt.Sched.InvokeCycles()
					energyPJ += tgt.Sched.TransferPJ
					inRun = true
				}
				execOps := occOps
				if tgt.fullExec {
					execOps = int64(len(tgt.Frame.Ops))
				}
				energyPJ -= float64(occOps) * perOpPJ
				energyPJ += tgt.Sched.InvokeEnergyPJ(execOps)
				acceleratedWeight += occOps
			} else {
				cycles += tgt.Sched.FailCycles() + oc
				energyPJ += tgt.Sched.FailEnergyPJ() + tgt.Sched.TransferPJ
				inRun = false
			}
		} else {
			cycles += oc
			inRun = false
		}
		pred.Update(hists[i], success)
	}
	res.OffloadCycles = cycles
	res.Improvement = float64(tr.BaselineCycles-cycles) / float64(tr.BaselineCycles)
	res.OffloadEnergyPJ = energyPJ
	res.EnergyReduction = energy.Reduction(tr.BaselineEnergyPJ, energyPJ)
	if res.Invocations > 0 {
		res.Precision = float64(res.Successes) / float64(res.Invocations)
	}
	if tr.Profile.TotalWeight > 0 {
		res.Coverage = float64(acceleratedWeight) / float64(tr.Profile.TotalWeight)
	}
	return res
}

// inSet reports whether every block p, a path of f, runs through is one of
// blocks.
func inSet(blocks []*ir.Block, f *ir.Function, p *profile.Path) bool {
	set := make(map[*ir.Block]bool, len(blocks))
	for _, b := range blocks {
		set[b] = true
	}
	for _, b := range p.Blocks {
		if !set[f.Blocks[b]] {
			return false
		}
	}
	return true
}

// referenceRankHists is the history table builder rankHists replaced,
// which reaches every path block's terminator through the function.
func referenceRankHists(fp *profile.FunctionProfile) []rankHist {
	f := fp.F
	tab := make([]rankHist, len(fp.Paths))
	for r, p := range fp.Paths {
		e := &tab[r]
		w := 0
		bs := p.Blocks
		for i := 1; i < len(bs); i++ {
			if t := f.Blocks[bs[i-1]].Term(); t.Op == ir.OpCondBr {
				e.bits = e.bits<<1 | b2u(int32(t.Blocks[0].Index) == bs[i])
				w++
			}
		}
		e.first, e.taken, e.n = bs[0], -1, uint8(min(w, 64))
		if t := f.Blocks[bs[len(bs)-1]].Term(); t.Op == ir.OpCondBr {
			e.taken, e.s, w = int32(t.Blocks[0].Index), 1, w+1
			e.self = uint8(b2u(e.taken == bs[0]))
		}
		e.setFull(w)
	}
	return tab
}

// TestRankHistsMatchReference: the history table rankHists builds from its
// per-block table is the reference's on the 29 workloads at their default
// sizes and on every corpus profile: the irgen programs and the
// checked-in .nir programs.
func TestRankHistsMatchReference(t *testing.T) {
	check := func(name string, fp *profile.FunctionProfile) {
		if got, want := rankHists(fp), referenceRankHists(fp); !slices.Equal(got, want) {
			t.Fatalf("%s: history tables differ from the reference", name)
		}
	}
	for _, w := range workloads.All() {
		f, args, memory := inlined(t, w, 0)
		fp, err := profile.CollectFunction(nil, f, args, memory, false, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		check(w.Name, fp)
	}
	for _, p := range corpus.Profiles(t) {
		check(p.Name, p.FP)
	}
}

// sameResult reports whether two results are equal field for field, with
// every float compared bit for bit.
func sameResult(a, b Result) bool {
	floats := func(r Result) [5]uint64 {
		return [5]uint64{
			math.Float64bits(r.Improvement), math.Float64bits(r.Precision),
			math.Float64bits(r.OffloadEnergyPJ), math.Float64bits(r.EnergyReduction),
			math.Float64bits(r.Coverage),
		}
	}
	return a == b && floats(a) == floats(b) &&
		math.Float64bits(a.BaselineEnergyPJ) == math.Float64bits(b.BaselineEnergyPJ)
}

// candidateTable builds and replays the Sim backend's candidate table over
// tr, as the backend does with SelectTopK 3 and ColdFraction 0.1.
func candidateTable(t testing.TB, name string, tr *Trace, cfg Config) *Candidates {
	t.Helper()
	braids := region.BuildBraids(tr.Profile, 0)
	c, err := NewCandidates(tr, braids, hotFrame(tr, braids, cfg), cfg, 3, 0.1)
	if err != nil {
		t.Fatalf("%s: NewCandidates: %v", name, err)
	}
	c.Replay()
	return c
}

// refTargetOf keys a candidate row's target by path ID, deriving acceptance
// from the row's region afresh.
func refTargetOf(fp *profile.FunctionProfile, r row) refTarget {
	tgt := r.target
	switch r.kind {
	case rowPath:
		id := tgt.Region.Paths[0].ID
		return newRefTarget(fp, tgt, func(q *profile.Path) bool { return q.ID == id })
	case rowBraid:
		br := r.braid
		return newRefTarget(fp, tgt, func(q *profile.Path) bool {
			n := len(q.Blocks)
			return n > 0 && fp.F.Blocks[q.Blocks[0]] == br.Entry && fp.F.Blocks[q.Blocks[n-1]] == br.Exit && inSet(br.Blocks, fp.F, q)
		})
	}
	return newRefTarget(fp, tgt, func(q *profile.Path) bool {
		return len(q.Blocks) > 0 && fp.F.Blocks[q.Blocks[0]] == tgt.Region.Entry && inSet(tgt.Region.Blocks, fp.F, q)
	})
}

// predictorOf returns a fresh predictor of kind k, a history table of
// bits bits for predHistory.
func predictorOf(k predKind, bits uint) spec.Predictor {
	switch k {
	case predHistory:
		return spec.NewHistory(bits)
	case predOracle:
		return &spec.Oracle{}
	}
	return spec.Always{}
}

// runsOf codes a trace of ranks as its maximal runs.
func runsOf(ranks []int32) []profile.Run {
	var runs []profile.Run
	for _, r := range ranks {
		if n := len(runs); n > 0 && runs[n-1].Rank == r {
			runs[n-1].Len++
			continue
		}
		runs = append(runs, profile.Run{Rank: r, Len: 1})
	}
	return runs
}

// ranksOf lists the rank of every occurrence runs hold, in order.
func ranksOf(runs []profile.Run) []int32 {
	var ranks []int32
	for _, run := range runs {
		for range run.Len {
			ranks = append(ranks, run.Rank)
		}
	}
	return ranks
}

// occCycles expands tr's packed cycles, one entry per occurrence, in
// trace order.
func occCycles(tr *Trace) []int64 {
	var cycles []int64
	r := wire.NewReader(tr.Cycles)
	for r.Offset() < len(tr.Cycles) {
		cycles = append(cycles, r.Varint())
	}
	return cycles
}

// setCycles packs cycles, one entry per occurrence of tr's path trace, into
// tr as Capture does, indexing them with indexRuns.
func setCycles(t testing.TB, tr *Trace, cycles []int64) {
	t.Helper()
	var b []byte
	for _, c := range cycles {
		b = wire.AppendVarint(b, c)
	}
	sums, offs, err := indexRuns(tr.Profile.Runs, b)
	if err != nil {
		t.Fatal(err)
	}
	tr.Cycles, tr.RunCycles, tr.offs, tr.Occ = b, sums, offs, make([]struct{}, len(cycles))
}

// prefixTrace is tr cut to its first k occurrences, over the same path
// table and baselines.
func prefixTrace(t testing.TB, tr *Trace, k int) *Trace {
	fp := *tr.Profile
	fp.Runs = runsOf(ranksOf(tr.Profile.Runs)[:k])
	cut := *tr
	cut.Profile = &fp
	setCycles(t, &cut, occCycles(tr)[:k])
	return &cut
}

// rowLabel names a row in failure messages.
func rowLabel(i int, r row) string {
	return fmt.Sprintf("row %d (kind %d, %s)", i, r.kind, r.result.Predictor)
}

// assertReplayMatchesReference builds and replays the Sim backend's
// candidate table over tr — the top 3 paths under the oracle and history
// predictors, the top 3 braids under history and always-invoke, and the
// hyperblock under always-invoke, all in one walk — and demands that every
// row equal the reference's replay of its target alone over hists, the
// histories a hooked run observed. It checks the whole trace and traces cut
// to several prefixes. It returns the number of rows compared on the whole
// trace.
func assertReplayMatchesReference(t *testing.T, name string, tr *Trace, hists []uint64, cfg Config) int {
	t.Helper()
	fp := tr.Profile
	if len(fp.Paths) == 0 {
		return 0
	}
	n := profile.Occurrences(fp.Runs)
	rows := 0
	for _, k := range []int{n, 0, 1, n / 3, max(n-1, 0)} {
		cut := prefixTrace(t, tr, k)
		c := candidateTable(t, name, cut, cfg)
		for i, r := range c.rows {
			want := referenceEvaluate(cut, hists[:k], refTargetOf(fp, r), predictorOf(r.pred, cfg.HistBits), cfg)
			if !sameResult(*r.result, want) {
				t.Fatalf("%s, first %d of %d occurrences, %s: replay differs from reference\n got  %+v\n want %+v",
					name, k, n, rowLabel(i, r), r.result, want)
			}
		}
		if k == n {
			rows = len(c.rows)
		}
	}
	return rows
}

// assertLanesIndependent replays every row of the candidate table alone, and
// all rows in reverse order, and demands the rows of the one walk: a lane
// that aliased another's predictor or scratch state would differ.
func assertLanesIndependent(t *testing.T, name string, tr *Trace, cfg Config) {
	t.Helper()
	c := candidateTable(t, name, tr, cfg)
	rev := make([]Lane, len(c.rows))
	for i, r := range c.rows {
		alone := Evaluate(tr, []Lane{{Target: r.target, Pred: predictorOf(r.pred, cfg.HistBits)}}, cfg)[0]
		if !sameResult(alone, *r.result) {
			t.Fatalf("%s %s: alone %+v, in the walk %+v", name, rowLabel(i, r), alone, r.result)
		}
		rev[len(rev)-1-i] = Lane{Target: r.target, Pred: predictorOf(r.pred, cfg.HistBits)}
	}
	for j, got := range Evaluate(tr, rev, cfg) {
		i := len(rev) - 1 - j
		if r := c.rows[i]; !sameResult(got, *r.result) {
			t.Fatalf("%s %s: in reverse order %+v, in order %+v", name, rowLabel(i, r), got, r.result)
		}
	}
}

// TestReplayMatchesReferenceWorkloads covers all 29 workloads, including
// the three whose Ball-Larus path-ID spaces exceed the interpreter's dense
// table bound (the IDs there are sparse and large).
func TestReplayMatchesReferenceWorkloads(t *testing.T) {
	all := workloads.All()
	if len(all) < 29 {
		t.Fatalf("workload suite shrank: %d workloads, want >= 29", len(all))
	}
	cfg := DefaultConfig()
	sparse := map[string]bool{"186.crafty": false, "458.sjeng": false, "swaptions": false}
	for _, w := range all {
		tr, hists := captureHists(t, w.Name, 0) // default size
		if _, ok := sparse[w.Name]; ok {
			sparse[w.Name] = tr.Profile.DAG.NumPaths() > interp.MaxDensePaths
		}
		if n := assertReplayMatchesReference(t, w.Name, tr, hists, cfg); n == 0 {
			t.Errorf("%s: no target evaluated", w.Name)
		}
		assertLanesIndependent(t, w.Name, tr, cfg)
	}
	for name, above := range sparse {
		if !above {
			t.Errorf("%s: path-ID space no longer exceeds MaxDensePaths; pick another sparse profile", name)
		}
	}
}

// TestReplayMatchesReferenceRandomPrograms covers 300 generated programs.
func TestReplayMatchesReferenceRandomPrograms(t *testing.T) {
	cfg := DefaultConfig()
	pairs := 0
	for seed := int64(0); seed < 300; seed++ {
		p := irgen.Generate(seed, irgen.Config{})
		name := fmt.Sprintf("seed %d", seed)
		tr, hists := captureProgramHists(t, name, p.F, []uint64{interp.IBits(seed)}, p.NewMem(), cfg)
		pairs += assertReplayMatchesReference(t, name, tr, hists, cfg)
		if seed%10 == 0 {
			assertLanesIndependent(t, fmt.Sprintf("seed %d", seed), tr, cfg)
		}
	}
	if pairs < 300 {
		t.Fatalf("only %d (target, predictor) pairs compared", pairs)
	}
}

// TestReplayMatchesReferenceHistBits replays candidate tables whose history
// lanes index 1, 4 and 20 bits of history instead of the default 12, on
// workloads with long and short runs of one path and on generated
// programs and on loops whose paths end in a conditional back edge, and
// tables whose history lanes mix 4 and 12 bits, so that the lanes of one
// replay find their runs' stable points under different masks.
func TestReplayMatchesReferenceHistBits(t *testing.T) {
	names := []string{"164.gzip", "197.parser", "fft-2d", "444.namd", "streamcluster"}
	for _, bits := range []uint{1, 4, 20} {
		cfg := DefaultConfig()
		cfg.HistBits = bits
		for _, name := range names {
			tr, hists := captureHists(t, name, 0)
			assertReplayMatchesReference(t, fmt.Sprintf("%s, %d history bits", name, bits), tr, hists, cfg)
		}
		for seed := int64(0); seed < 30; seed++ {
			p := irgen.Generate(seed, irgen.Config{})
			name := fmt.Sprintf("seed %d, %d history bits", seed, bits)
			tr, hists := captureProgramHists(t, name, p.F, []uint64{interp.IBits(seed)}, p.NewMem(), cfg)
			assertReplayMatchesReference(t, name, tr, hists, cfg)
		}
		for _, src := range []string{bottomSrc, parallelSrc} {
			f, err := ir.ParseFunction(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []uint64{5, 200} {
				name := fmt.Sprintf("%s(%d), %d history bits", f.Name, n, bits)
				tr, hists := captureProgramHists(t, name, f, []uint64{n}, make([]uint64, 256), cfg)
				assertReplayMatchesReference(t, name, tr, hists, cfg)
			}
		}
	}
	// The path rows come first, so each order gives the first history
	// lane one of the two masks.
	cfg := DefaultConfig()
	for _, name := range names {
		tr, hists := captureHists(t, name, 0)
		c := candidateTable(t, name, tr, cfg)
		for _, bits := range [][2]uint{{4, 12}, {12, 4}} {
			bitsOf := func(i int) uint { return bits[i%2] }
			lanes := make([]Lane, len(c.rows))
			for i, r := range c.rows {
				lanes[i] = Lane{Target: r.target, Pred: predictorOf(r.pred, bitsOf(i))}
			}
			for i, got := range Evaluate(tr, lanes, cfg) {
				r := c.rows[i]
				want := referenceEvaluate(tr, hists, refTargetOf(tr.Profile, r), predictorOf(r.pred, bitsOf(i)), cfg)
				if !sameResult(got, want) {
					t.Fatalf("%s, history bits %v, %s: replay differs from reference\n got  %+v\n want %+v",
						name, bits, rowLabel(i, r), got, want)
				}
			}
		}
	}
}
