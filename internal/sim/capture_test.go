package sim

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"needle/internal/ballarus"
	"needle/internal/energy"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/mem"
	"needle/internal/ooo"
	"needle/internal/oracle"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/workloads"
)

// captureHooked is the oracle Capture must match event for event: the hook
// interpreter with a Ball-Larus profiler, block and edge counters that
// ignore blocks outside f, the timing model (fed one instruction at a time
// by modelHooks) and the history tracker wired through CombineHooks, and
// the profile rehydrated with profile.FromData. It also lists the history
// register as each occurrence began.
func captureHooked(tb testing.TB, f *ir.Function, args, memory []uint64, cfg Config) (*Trace, []uint64, error) {
	am := pm.NewManager()
	dag, err := ballarus.Build(am, f)
	if err != nil {
		return nil, nil, err
	}
	prof := oracle.NewProfiler(dag)
	prof.RecordTrace = true
	cache := mem.New(cfg.Mem)
	model := ooo.New(cfg.OOO, f.NumRegs(), cache)
	hist := &oracle.HistoryTracker{}

	tr := &Trace{AM: am}
	var lastCycles int64
	var cycles []int64
	var hists []uint64
	var histBefore uint64
	prof.OnPath = func(id int64) {
		now := model.Cycles()
		cycles = append(cycles, now-lastCycles)
		hists = append(hists, histBefore)
		lastCycles = now
		histBefore = hist.H
	}
	member := func(b *ir.Block) bool { return b.Index < len(f.Blocks) && f.Blocks[b.Index] == b }
	edges := make(map[profile.Edge]int64)
	blocks := make([]int64, len(f.Blocks))
	counters := &oracle.Hooks{
		Block: func(b *ir.Block) {
			if member(b) {
				blocks[b.Index]++
			}
		},
		Edge: func(from, to *ir.Block) {
			if member(from) {
				edges[profile.Edge{From: from.Index, To: to.Index}]++
			}
		},
	}
	all := oracle.CombineHooks(counters, prof.Hooks(), modelHooks(model), hist.Hooks())
	if _, err := oracle.Run(f, args, memory, all, cfg.MaxSteps); err != nil {
		return nil, nil, err
	}
	// Rank the hooked trace with FromData, then keep the counts the hooks
	// measured rather than the ones FromData derives from the trace.
	ranks := make([]int32, len(prof.Trace))
	d := &profile.Data{}
	rank := make(map[int64]int32)
	for i, id := range prof.Trace {
		r, ok := rank[id]
		if !ok {
			r = int32(len(d.Paths))
			rank[id] = r
			d.Paths = append(d.Paths, id)
		}
		ranks[i] = r
	}
	d.Runs = runsOf(ranks)
	fp, err := profile.FromData(am, f, d)
	if err != nil {
		return nil, nil, err
	}
	fp.BlockCounts, fp.EdgeCounts = blocks, edges
	tr.Profile = fp
	setCycles(tb, tr, cycles)
	tr.hist = rankHists(fp)
	tr.BaselineCycles = model.Cycles()
	tr.Mix = model.Mix
	tr.CacheStats = cache.Stats
	tr.BaselineEnergyPJ = energy.HostEnergyPJ(cfg.CPU, model.Mix, cache.Stats)
	return tr, hists, nil
}

// modelHooks streams a hooked run into the timing model one instruction at
// a time: each instruction is fed as a one-entry timing packet (ooo's tests
// pin that this equals the per-instruction reference feed), with the
// address the Mem event of a memory operation reported.
func modelHooks(m *ooo.Model) *oracle.Hooks {
	var addr [1]int64
	packets := make(map[*ir.Instr]*interp.TimingPacket)
	return &oracle.Hooks{
		Mem: func(_ *ir.Instr, a int64) { addr[0] = a },
		Instr: func(in *ir.Instr) {
			pk := packets[in]
			if pk == nil {
				pk = interp.NewTimingPacket([]*ir.Instr{in})
				packets[in] = pk
			}
			m.FeedBlock(pk, 1, addr[:])
		},
		Edge: func(from, to *ir.Block) {
			if t := from.Term(); t != nil && t.Op == ir.OpCondBr {
				m.NoteBranch(t.Blocks[0] == to)
			}
		},
	}
}

// assertCaptureEquivalent runs the system-simulator capture both ways on one
// inlined workload, as the pipeline captures it, and demands byte-identical
// traces: same per-occurrence cycle attribution, same baseline cycles, op
// mix, cache stats, energy, and the same finished profile. The histories
// derived from the fast trace must be the ones the hooked run observed.
func assertCaptureEquivalent(t *testing.T, w *workloads.Workload, n int) {
	t.Helper()
	name := w.Name
	cfg := DefaultConfig()

	f, args, memory := inlined(t, w, n)
	fast, err := Capture(nil, f, args, memory, cfg)
	if err != nil {
		t.Fatalf("%s: fast capture: %v", name, err)
	}

	f2, args2, memory2 := inlined(t, w, n)
	slow, hists, err := captureHooked(t, f2, args2, memory2, cfg)
	if err != nil {
		t.Fatalf("%s: hooked capture: %v", name, err)
	}

	if !bytes.Equal(fast.Cycles, slow.Cycles) || !slices.Equal(fast.offs, slow.offs) {
		t.Fatalf("%s: occurrence streams differ (fast %d, hooked %d bytes)", name, len(fast.Cycles), len(slow.Cycles))
	}
	assertHistsDerived(t, name, fast, hists)
	if fast.BaselineCycles != slow.BaselineCycles {
		t.Errorf("%s: baseline cycles fast=%d hooked=%d", name, fast.BaselineCycles, slow.BaselineCycles)
	}
	if fast.Mix != slow.Mix {
		t.Errorf("%s: op mix fast=%+v hooked=%+v", name, fast.Mix, slow.Mix)
	}
	if fast.CacheStats != slow.CacheStats {
		t.Errorf("%s: cache stats fast=%+v hooked=%+v", name, fast.CacheStats, slow.CacheStats)
	}
	if fast.BaselineEnergyPJ != slow.BaselineEnergyPJ {
		t.Errorf("%s: energy fast=%v hooked=%v", name, fast.BaselineEnergyPJ, slow.BaselineEnergyPJ)
	}
	fp, sp := fast.Profile, slow.Profile
	if fp.TotalWeight != sp.TotalWeight || len(fp.Paths) != len(sp.Paths) {
		t.Fatalf("%s: profile shape differs", name)
	}
	for i := range fp.Paths {
		if fp.Paths[i].ID != sp.Paths[i].ID || fp.Paths[i].Freq != sp.Paths[i].Freq {
			t.Fatalf("%s: path %d differs", name, i)
		}
	}
	if !reflect.DeepEqual(fp.Runs, sp.Runs) || !reflect.DeepEqual(fast.RunCycles, slow.RunCycles) {
		t.Fatalf("%s: path traces differ", name)
	}
	if !reflect.DeepEqual(fp.BlockCounts, sp.BlockCounts) {
		t.Fatalf("%s: block counts differ", name)
	}
	if !reflect.DeepEqual(fp.EdgeCounts, sp.EdgeCounts) {
		t.Fatalf("%s: edge counts differ", name)
	}
}

// TestCaptureFastMatchesHooked exercises the three biggest captures at a
// deeper iteration count than the whole-suite sweep below.
func TestCaptureFastMatchesHooked(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"456.hmmer", 800},
		{"164.gzip", 800},
		{"183.equake", 500},
	} {
		w := workloads.ByName(tc.name)
		if w == nil {
			t.Fatalf("unknown workload %s", tc.name)
		}
		assertCaptureEquivalent(t, w, tc.n)
	}
}

// TestCaptureFastMatchesHookedAllWorkloads runs the batched-vs-hooked
// differential over the entire inlined workload suite at a modest iteration
// count, so every block shape in the corpus (wide phis, dense float kernels,
// irregular control flow) crosses the packet fast path at least once.
func TestCaptureFastMatchesHookedAllWorkloads(t *testing.T) {
	all := workloads.All()
	if len(all) < 29 {
		t.Fatalf("workload suite shrank: %d workloads, want >= 29", len(all))
	}
	for _, w := range all {
		assertCaptureEquivalent(t, w, 400)
	}
}

// TestCaptureReusesL1Model: captures that alternate two L1 geometries,
// with a capture cut short by its step bound between good ones, take
// their L1 models from the pool, and each good one matches a capture on a
// new model in its packed cycles, run sums, cache stats, baseline cycles
// and energy.
func TestCaptureReusesL1Model(t *testing.T) {
	small := DefaultConfig()
	small.Mem = mem.Config{L1Words: 1024, L1Ways: 2, L1LineWords: 4}
	cut := DefaultConfig()
	cut.MaxSteps = 5000
	w := workloads.ByName("164.gzip")
	for i, cfg := range []Config{DefaultConfig(), small, cut, DefaultConfig(), cut, small, DefaultConfig()} {
		f, args, memory := inlined(t, w, 300)
		got, err := Capture(nil, f, args, memory, cfg)
		if cfg.MaxSteps == cut.MaxSteps {
			if err == nil {
				t.Fatalf("capture %d: a run bounded to %d steps finished", i, cut.MaxSteps)
			}
			continue
		}
		if err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
		f, args, memory = inlined(t, w, 300)
		want, err := captureOn(mem.New(cfg.Mem), nil, f, args, memory, cfg)
		if err != nil {
			t.Fatalf("capture %d on a new L1: %v", i, err)
		}
		if !bytes.Equal(got.Cycles, want.Cycles) || !slices.Equal(got.RunCycles, want.RunCycles) {
			t.Errorf("capture %d: packed cycles or run sums differ from a new L1's", i)
		}
		if got.CacheStats != want.CacheStats || got.BaselineCycles != want.BaselineCycles ||
			got.BaselineEnergyPJ != want.BaselineEnergyPJ {
			t.Errorf("capture %d: stats %+v, %d cycles, %v pJ; a new L1 gives %+v, %d cycles, %v pJ", i,
				got.CacheStats, got.BaselineCycles, got.BaselineEnergyPJ,
				want.CacheStats, want.BaselineCycles, want.BaselineEnergyPJ)
		}
	}
}
