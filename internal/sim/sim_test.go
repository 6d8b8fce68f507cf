package sim

import (
	"errors"
	"testing"

	"needle/internal/frame"
	"needle/internal/ir"
	"needle/internal/oracle"
	"needle/internal/passes"
	"needle/internal/region"
	"needle/internal/spec"
	"needle/internal/workloads"
)

// inlined instantiates w at size n with every call inlined, as the
// pipeline's Inline stage leaves it for capture.
func inlined(t testing.TB, w *workloads.Workload, n int) (*ir.Function, []uint64, []uint64) {
	t.Helper()
	f, args, memory := w.Instance(n)
	f, err := passes.InlineAll(f)
	if err != nil {
		t.Fatalf("%s: InlineAll: %v", w.Name, err)
	}
	return f, args, memory
}

func capture(t testing.TB, name string, n int) *Trace {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("unknown workload %s", name)
	}
	f, args, memory := inlined(t, w, n)
	tr, err := Capture(nil, f, args, memory, DefaultConfig())
	if err != nil {
		t.Fatalf("Capture(%s): %v", name, err)
	}
	return tr
}

// hottestPath evaluates the hottest BL-Path under the oracle bound and the
// invocation history table.
func hottestPath(t testing.TB, tr *Trace, cfg Config) (oracle, history Result) {
	t.Helper()
	tgt, err := NewPathTarget(tr.AM, tr.Profile, tr.Profile.HottestPath(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := Evaluate(tr, []Lane{{tgt, &spec.Oracle{}}, {tgt, spec.NewHistory(cfg.HistBits)}}, cfg)
	return res[0], res[1]
}

// hotFrame frames braids[0] as the pipeline's Frame stage does, or returns
// nil when it cannot be framed (or there is no braid).
func hotFrame(tr *Trace, braids []*region.Braid, cfg Config) *frame.Frame {
	if len(braids) == 0 {
		return nil
	}
	fr, err := frame.Build(tr.AM, &braids[0].Region, cfg.Frame)
	if err != nil {
		return nil
	}
	return fr
}

// hottestBraid evaluates the top-ranked braid under pred.
func hottestBraid(t testing.TB, tr *Trace, cfg Config, pred spec.Predictor) (Result, *region.Braid) {
	t.Helper()
	braids := region.BuildBraids(tr.Profile, 0)
	if len(braids) == 0 {
		t.Fatal("no braids")
	}
	tgt, err := NewBraidTarget(tr.AM, tr.Profile, braids[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Evaluate(tr, []Lane{{tgt, pred}}, cfg)[0], braids[0]
}

func TestCaptureAttributionSumsToBaseline(t *testing.T) {
	tr := capture(t, "181.mcf", 800)
	var sum int64
	for _, occ := range tr.Occ {
		sum += occ.Cycles
	}
	// Occurrence cycles partition the baseline (the last path completion
	// coincides with the function return).
	if sum != tr.BaselineCycles {
		t.Fatalf("occurrence cycles sum to %d, baseline %d", sum, tr.BaselineCycles)
	}
	if tr.BaselineEnergyPJ <= 0 {
		t.Fatal("no baseline energy")
	}
	if int64(len(tr.Occ)) != tr.Profile.HottestPath().Freq+sumOtherFreqs(tr) {
		t.Fatal("occurrence count mismatch with profile")
	}
}

func sumOtherFreqs(tr *Trace) int64 {
	var n int64
	for _, p := range tr.Profile.Paths[1:] {
		n += p.Freq
	}
	return n
}

func TestOracleNeverFails(t *testing.T) {
	tr := capture(t, "164.gzip", 1500)
	oracle, history := hottestPath(t, tr, DefaultConfig())
	if oracle.Invocations != oracle.Successes {
		t.Fatalf("oracle failed %d times", oracle.Invocations-oracle.Successes)
	}
	if oracle.Precision != 1.0 && oracle.Invocations > 0 {
		t.Fatalf("oracle precision = %v", oracle.Precision)
	}
	// The oracle bound dominates the history predictor on cycles.
	if history.OffloadCycles < oracle.OffloadCycles {
		t.Fatalf("history (%d) beat the oracle (%d)", history.OffloadCycles, oracle.OffloadCycles)
	}
	if oracle.Opportunities == 0 {
		t.Fatal("no opportunities seen")
	}
}

func TestBraidCoverageAtLeastPathCoverage(t *testing.T) {
	tr := capture(t, "456.hmmer", 1500)
	cfg := DefaultConfig()
	braid, br := hottestBraid(t, tr, cfg, spec.NewHistory(cfg.HistBits))
	oracle, _ := hottestPath(t, tr, cfg)
	if br.MergedPathCount() < 2 {
		t.Skipf("braid merged only %d paths at this scale", br.MergedPathCount())
	}
	if braid.Coverage < oracle.Coverage {
		t.Fatalf("braid coverage %v below path coverage %v", braid.Coverage, oracle.Coverage)
	}
	// Under always-invoke every opportunity is an invocation, and the braid
	// accepts every in-region flow.
	always, _ := hottestBraid(t, tr, cfg, spec.Always{})
	if always.Invocations != always.Opportunities {
		t.Fatal("always predictor must invoke on every opportunity")
	}
}

func TestEvaluateAccountsFailures(t *testing.T) {
	// bodytrack's noisy branches make single-path offload fail often under
	// always-invoke; failures must cost more than the baseline occurrences.
	tr := capture(t, "bodytrack", 1200)
	cfg := DefaultConfig()
	hot := tr.Profile.HottestPath()
	tgt, err := NewPathTarget(nil, tr.Profile, hot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := Evaluate(tr, []Lane{{tgt, spec.Always{}}, {tgt, &spec.Oracle{}}}, cfg)
	always, oracle := res[0], res[1]
	if always.Invocations != always.Opportunities {
		t.Fatal("always must invoke at every opportunity")
	}
	if always.Successes == always.Invocations {
		t.Skip("no failures at this scale; nothing to check")
	}
	if always.OffloadCycles <= oracle.OffloadCycles {
		t.Fatal("failures must cost cycles versus the oracle")
	}
	if always.OffloadEnergyPJ <= oracle.OffloadEnergyPJ {
		t.Fatal("failures must cost energy versus the oracle")
	}
}

func TestHighCoverageWorkloadImproves(t *testing.T) {
	// lbm: two paths, huge straight-line FP body — the paper's best case.
	tr := capture(t, "470.lbm", 500)
	cfg := DefaultConfig()
	braid, _ := hottestBraid(t, tr, cfg, spec.NewHistory(cfg.HistBits))
	if braid.Improvement <= 0 {
		t.Fatalf("lbm braid improvement = %v, want > 0", braid.Improvement)
	}
	if braid.EnergyReduction <= 0 {
		t.Fatalf("lbm braid energy reduction = %v, want > 0", braid.EnergyReduction)
	}
	if braid.Coverage < 0.5 {
		t.Fatalf("lbm braid coverage = %v, want > 0.5", braid.Coverage)
	}
}

func TestResultInternalConsistency(t *testing.T) {
	for _, name := range []string{"403.gcc", "dwt53", "450.soplex"} {
		tr := capture(t, name, 1000)
		cfg := DefaultConfig()
		braid, _ := hottestBraid(t, tr, cfg, spec.NewHistory(cfg.HistBits))
		if braid.Successes > braid.Invocations || braid.Invocations > braid.Opportunities {
			t.Fatalf("%s: counts inconsistent: %+v", name, braid)
		}
		if braid.Coverage < 0 || braid.Coverage > 1 {
			t.Fatalf("%s: coverage out of range: %v", name, braid.Coverage)
		}
		wantImp := float64(braid.BaselineCycles-braid.OffloadCycles) / float64(braid.BaselineCycles)
		if diff := wantImp - braid.Improvement; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: improvement bookkeeping wrong", name)
		}
	}
}

// TestFunctionalOffloadMatchesPureExecution is the end-to-end correctness
// contract of software speculation: interleaving host execution with
// speculative frames (including failures and rollbacks) must produce
// bit-identical results and memory to a pure host run.
func TestFunctionalOffloadMatchesPureExecution(t *testing.T) {
	for _, tc := range []struct {
		workload string
		braid    bool
		// undoesStores marks a target whose failing invocations store
		// before they diverge, so only the undo log keeps memory intact;
		// the case asserts that it rolls back at least once.
		undoesStores bool
	}{
		{"181.mcf", false, false},
		{"456.hmmer", true, false},
		{"bodytrack", true, false}, // noisy: exercises failures+rollbacks
		{"164.gzip", false, false}, // early-exit chains
		{"470.lbm", true, false},   // store-heavy
		{"freqmine", false, false}, // store-bearing divergent paths
		{"dwt53", false, true},
		{"sar-backprojection", true, true},
	} {
		tc := tc
		t.Run(tc.workload, func(t *testing.T) {
			w := workloads.ByName(tc.workload)
			f, args, mem1 := w.Instance(900)
			pure, err := oracle.Run(f, args, mem1, nil, 0)
			if err != nil {
				t.Fatal(err)
			}

			// Fresh memory for profiling, then a third copy for the
			// functional offload run.
			_, args2, memProfile := w.Instance(900)
			cfg := DefaultConfig()
			tr, err := Capture(nil, f, args2, memProfile, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var tgt *Target
			if tc.braid {
				braids := region.BuildBraids(tr.Profile, 0)
				tgt, err = NewBraidTarget(nil, tr.Profile, braids[0], cfg)
			} else {
				tgt, err = NewPathTarget(nil, tr.Profile, tr.Profile.HottestPath(), cfg)
			}
			if err != nil {
				t.Fatal(err)
			}

			_, args3, mem3 := w.Instance(900)
			res, err := FunctionalOffload(f, args3, mem3, tgt, spec.Always{}, 0)
			if err != nil {
				t.Fatalf("FunctionalOffload: %v", err)
			}
			if res.Ret != pure.Ret {
				t.Fatalf("offloaded result %d != pure result %d", res.Ret, pure.Ret)
			}
			for i := range mem1 {
				if mem1[i] != mem3[i] {
					t.Fatalf("memory diverged at word %d", i)
				}
			}
			if res.Invocations == 0 {
				t.Fatal("the target was never invoked")
			}
			if tc.undoesStores && res.Rollbacks == 0 {
				t.Fatal("no invocation rolled back")
			}
			t.Logf("%s: %d invocations, %d successes, %d rollbacks, %d frame ops",
				tc.workload, res.Invocations, res.Successes, res.Rollbacks, res.FrameOps)
		})
	}
}

func TestEvaluateHyperblockBaseline(t *testing.T) {
	tr := capture(t, "186.crafty", 1500)
	cfg := DefaultConfig()
	hb := candidateTable(t, "186.crafty", tr, cfg).Hyperblock()
	// Non-speculative predication cannot fail.
	if hb.Successes != hb.Invocations {
		t.Fatalf("hyperblock failed %d times; predication cannot fail", hb.Invocations-hb.Successes)
	}
	// On dispatch-heavy code the predicated baseline burns energy executing
	// everything; Needle's selected braid must beat it on cycles.
	braid, _ := hottestBraid(t, tr, cfg, spec.NewHistory(cfg.HistBits))
	if hb.Improvement > braid.Improvement && braid.Improvement > 0 {
		t.Fatalf("hyperblock (%.2f) should not beat the braid (%.2f) on crafty",
			hb.Improvement, braid.Improvement)
	}
}

func TestSelectBraidRejectsEnergyLosers(t *testing.T) {
	// Selection must never return a candidate that increases energy, even
	// when it would win cycles.
	for _, name := range []string{"186.crafty", "458.sjeng", "401.bzip2"} {
		tr := capture(t, name, 1500)
		cfg := DefaultConfig()
		cand := candidateTable(t, name, tr, cfg).BraidChoice()
		if cand.Result.OffloadEnergyPJ > cand.Result.BaselineEnergyPJ+1e-6 {
			t.Fatalf("%s: selected braid loses energy", name)
		}
		if cand.Result.OffloadCycles > cand.Result.BaselineCycles {
			t.Fatalf("%s: selected braid loses cycles", name)
		}
	}
}

func TestSelectPathTriesLowerRanks(t *testing.T) {
	tr := capture(t, "453.povray", 2000)
	cfg := DefaultConfig()
	// topK=1 must never beat topK=3 (the search is monotone in candidates).
	braids := region.BuildBraids(tr.Profile, 0)
	pathChoice := func(topK int) (history, oracle Result) {
		c, err := NewCandidates(tr, braids, hotFrame(tr, braids, cfg), cfg, topK, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		c.Replay()
		return c.PathChoice()
	}
	h1, o1 := pathChoice(1)
	h3, o3 := pathChoice(3)
	if h3.OffloadCycles > h1.OffloadCycles || o3.OffloadCycles > o1.OffloadCycles {
		t.Fatal("widening the candidate search made the result worse")
	}
}

// exitCheckSrc has two back edges into head: a path head→a leaves through
// a's back edge, inside the blocks of the braid head→a→latch but ending
// short of its exit.
const exitCheckSrc = `
func @exitcheck(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [a: r6] [latch: r6]
  r4 = cmp.lt r3, r1
  condbr r4, %a, %done
a:
  r5 = const.i64 1
  r6 = add r3, r5
  r7 = const.i64 3
  r8 = rem r6, r7
  r9 = cmp.eq r8, r2
  condbr r9, %head, %latch
latch:
  br %head
done:
  ret r3
}
`

// TestBraidRejectsPathsEndingInsideIt: a path that starts at a braid's
// entry and stays within its blocks is an opportunity, but completes on the
// accelerator only if it also ends at the braid's exit.
func TestBraidRejectsPathsEndingInsideIt(t *testing.T) {
	f, err := ir.ParseFunction(exitCheckSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	tr, err := Capture(nil, f, []uint64{30}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := tr.Profile
	short := -1 // rank of the path head→a
	for i, p := range fp.Paths {
		if len(p.Blocks) == 2 && fp.F.Blocks[p.Blocks[0]].Name == "head" && fp.F.Blocks[p.Blocks[1]].Name == "a" {
			short = i
		}
	}
	if short < 0 {
		t.Fatal("path head→a never executed")
	}
	for _, br := range region.BuildBraids(fp, 0) {
		if br.Entry.Name != "head" || br.Exit.Name != "latch" {
			continue
		}
		tgt, err := NewBraidTarget(nil, fp, br, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !tgt.isOpp[short] || tgt.accepts[short] {
			t.Fatalf("path head→a: opportunity %v, accepted %v; want an opportunity that fails",
				tgt.isOpp[short], tgt.accepts[short])
		}
		return
	}
	t.Fatal("no braid head→latch formed")
}

// TestConfigCheck accepts the Table V system, the zero config and the
// bounds themselves, and rejects, with ErrConfig, each config that would
// spin the CGRA scheduler, divide by zero in placement, index an empty
// host-core table, or size a model's tables past its bound.
func TestConfigCheck(t *testing.T) {
	edge := DefaultConfig()
	edge.CGRA.Rows, edge.CGRA.Cols, edge.CGRA.MemPorts, edge.CGRA.MemLatency = 32, 32, 1024, 1024
	edge.OOO.ROB, edge.Frame.UndoOpsPerStore, edge.Mem.L1Words = 4096, 64, 1<<20
	for _, ok := range []Config{DefaultConfig(), {}, {HistBits: 40}, edge} {
		if err := ok.Check(); err != nil {
			t.Errorf("Check(%+v) = %v, want nil", ok, err)
		}
	}
	bad := map[string]func(*Config){
		"no memory ports":    func(c *Config) { c.CGRA.MemPorts = 0 },
		"no columns":         func(c *Config) { c.CGRA.Cols = 0 },
		"negative rows":      func(c *Config) { c.CGRA.Rows = -1 },
		"256x256 fabric":     func(c *Config) { c.CGRA.Rows, c.CGRA.Cols = 256, 256 },
		"overflowing grid":   func(c *Config) { c.CGRA.Rows, c.CGRA.Cols = 1<<40, 1<<40 },
		"huge mem latency":   func(c *Config) { c.CGRA.MemLatency = 1 << 40 },
		"no rob":             func(c *Config) { c.OOO.ROB = 0 },
		"no alus":            func(c *Config) { c.OOO.ALUs = 0 },
		"no fpus":            func(c *Config) { c.OOO.FPUs = 0 },
		"huge rob":           func(c *Config) { c.OOO.ROB = 1 << 30 },
		"huge l1":            func(c *Config) { c.Mem.L1Words = 1 << 40 },
		"huge associativity": func(c *Config) { c.Mem.L1Ways = 1 << 30 },
		"huge undo log":      func(c *Config) { c.Frame.UndoOpsPerStore = 1 << 40 },
	}
	for name, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Check(); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: Check = %v, want ErrConfig", name, err)
		}
	}
}
