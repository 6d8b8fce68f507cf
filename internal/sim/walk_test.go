package sim

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"needle/internal/spec"
	"needle/internal/wire"
)

// braidRanks are ranks of one braid row's target by class: two paths it
// completes, one it fails and one that stays on the host.
type braidRanks struct{ s1, s2, fail, host int32 }

// classRanks finds ranks of each class for a braid row, or reports false.
func classRanks(r row) (braidRanks, bool) {
	var succ, fail, host []int32
	for i, opp := range r.target.isOpp {
		switch {
		case !opp:
			host = append(host, int32(i))
		case r.target.accepts[i]:
			succ = append(succ, int32(i))
		default:
			fail = append(fail, int32(i))
		}
	}
	if len(succ) < 2 || len(fail) == 0 || len(host) == 0 {
		return braidRanks{}, false
	}
	return braidRanks{succ[0], succ[1], fail[0], host[0]}, true
}

// braidWithEveryClass returns the trace and candidate table of the first of
// a few workloads with a braid row whose paths fall in every class, and
// that row's ranks.
func braidWithEveryClass(t *testing.T, cfg Config) (*Trace, *Candidates, braidRanks) {
	for _, name := range []string{"164.gzip", "456.hmmer", "186.crafty"} {
		tr := capture(t, name, 0)
		c := candidateTable(t, name, tr, cfg)
		for _, r := range c.rows {
			if r.kind != rowBraid {
				continue
			}
			if k, ok := classRanks(r); ok {
				return tr, c, k
			}
		}
	}
	t.Fatal("no braid target with two completed, a failed and a host path")
	return nil, nil, braidRanks{}
}

// handTrace is tr's profile replayed over a hand-built trace: one
// occurrence per entry of ranks, occurrence i of cycles[i%len(cycles)]
// host cycles, whose paths shift into the branch history what the
// per-rank table tab says.
func handTrace(t testing.TB, tr *Trace, ranks []int32, tab []rankHist, cycles []int64) *Trace {
	fp := *tr.Profile
	fp.Runs = runsOf(ranks)
	ht := *tr
	ht.Profile = &fp
	ht.hist = tab
	occ := make([]int64, len(ranks))
	ht.BaselineCycles = 0
	for i := range occ {
		occ[i] = cycles[i%len(cycles)]
		ht.BaselineCycles += occ[i]
	}
	setCycles(t, &ht, occ)
	return &ht
}

// Host cycles of hand-built traces: small ones, each one varint byte, and
// wide ones, whose varints take 1, 2, 3, 10 and 10 bytes in turn, so that
// a history lane's stepped prefix and the bulk rest of a run both hold
// every width.
var (
	narrowCycles = []int64{5, 6, 7, 8, 9, 10, 11}
	wideCycles   = []int64{9, 3000, 70000, 1 << 62, -(1 << 62) - 1}
)

// otherPredictor is a predictor of none of the types the replay resolves.
type otherPredictor struct{}

func (otherPredictor) Predict(uint64) bool { return true }
func (otherPredictor) Update(uint64, bool) {}
func (otherPredictor) Name() string        { return "other" }

// TestEvaluateRefusesOtherPredictors: a lane whose predictor is not a
// history table, an oracle or always-invoke is a programming error, which
// Evaluate reports by panicking before it replays anything.
func TestEvaluateRefusesOtherPredictors(t *testing.T) {
	cfg := DefaultConfig()
	tr := capture(t, "164.gzip", 0)
	tgt, err := NewPathTarget(tr.AM, tr.Profile, tr.Profile.HottestPath(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "sim.otherPredictor") {
			t.Fatalf("Evaluate of a lane of another predictor type: recovered %v, want a panic naming the type", r)
		}
	}()
	Evaluate(tr, []Lane{{Target: tgt, Pred: spec.Always{}}, {Target: tgt, Pred: otherPredictor{}}}, cfg)
}

// trainedHistory is a history table trained to decline history d.
func trainedHistory(bits uint, d uint64) spec.Predictor {
	h := spec.NewHistory(bits)
	for range 3 {
		h.Update(d, false)
	}
	return h
}

// acrossTiles is a trace of 1,300 runs of k's ranks, more than two tiles
// of the replay, of 1 to 5 occurrences each. The ranks cycle with a
// period of 8, which divides the tile, so the last run of a tile and the
// first of the next are two paths the braid completes.
func acrossTiles(k braidRanks) []int32 {
	cycle := []int32{k.s1, k.s2, k.fail, k.s1, k.host, k.s2, k.s1, k.s2}
	var ranks []int32
	for j := range 1300 {
		for range 1 + j%5 {
			ranks = append(ranks, cycle[j%len(cycle)])
		}
	}
	return ranks
}

// TestReplayHandBuiltTraces replays hand-built traces over a braid target
// whose paths fall in every class, and every other candidate of its table,
// and demands the reference's result for each lane, bit for bit, on one
// worker and split. The reference reads every occurrence's history from
// expandHists and its host cycles from the expanded varints. Each trace is
// replayed with narrow and wide host cycles, and each lane runs under its
// row's predictor and under a history table trained to decline the history
// of the trace's first occurrence.
func TestReplayHandBuiltTraces(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := DefaultConfig()
	tr, c, k := braidWithEveryClass(t, cfg)
	fp := tr.Profile
	flat, mixed := flatHists(len(fp.Paths)), mixedHists(len(fp.Paths))
	rep := func(r int32, n int) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = r
		}
		return s
	}
	cat := func(parts ...[]int32) []int32 {
		var s []int32
		for _, p := range parts {
			s = append(s, p...)
		}
		return s
	}
	cases := []struct {
		name  string
		ranks []int32
		tab   []rankHist
	}{
		// A run of s2 entered while the pipeline of s1's run is still
		// resident: it pays the initiation interval, not the invocation.
		{"carried run", cat(rep(k.host, 1), rep(k.s1, 2), rep(k.s2, 3), rep(k.fail, 1), rep(k.s2, 1), rep(k.s1, 2)), mixed},
		// Every history is 0, so the trained table declines the run's
		// first three occurrences, and the lane's first invocation, and
		// its reconfiguration, fall inside the run.
		{"first invocation mid-run", cat(rep(k.s1, 4), rep(k.host, 2), rep(k.s2, 3)), flat},
		{"all host", rep(k.host, 9), mixed},
		{"one success", rep(k.s1, 1), mixed},
		{"one failure", rep(k.fail, 1), mixed},
		{"one host", rep(k.host, 1), mixed},
		// Runs long enough to reach their stable points, and past them.
		{"long runs", cat(rep(k.s1, 40), rep(k.fail, 30), rep(k.s2, 25), rep(k.s1, 3), rep(k.fail, 70)), mixed},
		// Runs across the replay's tile boundaries: 1,300 runs of 1 to 5
		// occurrences cycling through every class, so the braid's
		// pipeline of successes and the branch history carry across a
		// tile's end.
		{"across tiles", acrossTiles(k), mixed},
	}
	widths := map[int]bool{}
	for _, c := range wideCycles {
		widths[len(wire.AppendVarint(nil, c))] = true
	}
	if len(widths) != 4 || !widths[1] || !widths[2] || !widths[3] || !widths[10] {
		t.Fatalf("wide cycles take varints of %v bytes, want 1, 2, 3 and 10", widths)
	}
	for _, tc := range cases {
		for _, cycles := range [][]int64{narrowCycles, wideCycles} {
			ht := handTrace(t, tr, tc.ranks, tc.tab, cycles)
			hists := expandHists(tc.tab, ht.Profile.Runs)
			preds := []struct {
				name string
				make func(r row) spec.Predictor
			}{
				{"row", func(r row) spec.Predictor { return predictorOf(r.pred, cfg.HistBits) }},
				{"trained history", func(row) spec.Predictor { return trainedHistory(cfg.HistBits, hists[0]) }},
			}
			for _, p := range preds {
				lanes := func() []Lane {
					ls := make([]Lane, len(c.rows))
					for i, r := range c.rows {
						ls[i] = Lane{Target: r.target, Pred: p.make(r)}
					}
					return ls
				}
				for _, floor := range []int{math.MaxInt, 1} {
					got := evaluate(ht, lanes(), cfg, floor)
					for i, r := range c.rows {
						want := referenceEvaluate(ht, hists, refTargetOf(fp, r), p.make(r), cfg)
						if !sameResult(got[i], want) {
							t.Fatalf("%s, cycles %v, %s predictor, floor %d, row %d (kind %d): replay differs from reference\n got  %+v\n want %+v",
								tc.name, cycles, p.name, floor, i, r.kind, got[i], want)
						}
					}
				}
			}
		}
	}
}
