package sim

import (
	"reflect"
	"testing"

	"needle/internal/energy"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/mem"
	"needle/internal/ooo"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/spec"
	"needle/internal/workloads"
)

// captureHooked is Capture with the compiled fast path disabled: the
// collector is committed to the hook path before running, and the timing
// model, history tracker, and profiler are wired through CombineHooks. It
// is the oracle the fast path must match event for event.
func captureHooked(f *ir.Function, args, memory []uint64, cfg Config) (*Trace, error) {
	am := pm.NewManager()
	collector, err := profile.NewCollector(am, f, true)
	if err != nil {
		return nil, err
	}
	cache := mem.New(cfg.Mem)
	model := ooo.New(cfg.OOO, f.NumRegs(), cache)
	hist := &spec.HistoryTracker{}

	tr := &Trace{AM: am}
	var lastCycles int64
	var histBefore uint64
	collector.SetOnPath(func(id int64) {
		now := model.Cycles()
		tr.Occ = append(tr.Occ, Occurrence{Hist: histBefore, Cycles: now - lastCycles})
		lastCycles = now
		histBefore = hist.H
	})
	all := interp.CombineHooks(collector.Hooks(), model.Hooks(), hist.Hooks())
	if collector.Fast() {
		return nil, errSimImpossible
	}
	if _, err := interp.Run(f, args, memory, all, cfg.MaxSteps); err != nil {
		return nil, err
	}
	fp, err := collector.Finish()
	if err != nil {
		return nil, err
	}
	tr.Profile = fp
	tr.BaselineCycles = model.Cycles()
	tr.Mix = model.Mix
	tr.CacheStats = cache.Stats
	tr.BaselineEnergyPJ = energy.HostEnergyPJ(cfg.CPU, model.Mix, cache.Stats)
	return tr, nil
}

var errSimImpossible = &simTestErr{"collector still fast after Hooks()"}

type simTestErr struct{ s string }

func (e *simTestErr) Error() string { return e.s }

// assertCaptureEquivalent runs the system-simulator capture both ways on one
// workload and demands byte-identical traces: same per-occurrence cycle
// attribution and history snapshots, same baseline cycles, op mix, cache
// stats, energy, and the same finished profile.
func assertCaptureEquivalent(t *testing.T, w *workloads.Workload, n int, requireFast bool) {
	t.Helper()
	name := w.Name
	cfg := DefaultConfig()

	f, args, memory := w.Instance(n)
	if c, err := profile.NewCollector(nil, f, true); err != nil {
		t.Fatalf("%s: NewCollector: %v", name, err)
	} else if !c.Fast() && requireFast {
		t.Fatalf("%s: workload did not take the fast path; test is vacuous", name)
	}
	fast, err := Capture(nil, f, args, memory, cfg)
	if err != nil {
		t.Fatalf("%s: fast capture: %v", name, err)
	}

	f2, args2, memory2 := w.Instance(n)
	slow, err := captureHooked(f2, args2, memory2, cfg)
	if err != nil {
		t.Fatalf("%s: hooked capture: %v", name, err)
	}

	if !reflect.DeepEqual(fast.Occ, slow.Occ) {
		t.Fatalf("%s: occurrence streams differ (fast %d, hooked %d)", name, len(fast.Occ), len(slow.Occ))
	}
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
	if !reflect.DeepEqual(fp.Trace, sp.Trace) {
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
		assertCaptureEquivalent(t, w, tc.n, true)
	}
}

// TestCaptureFastMatchesHookedAllWorkloads runs the batched-vs-hooked
// differential over the entire workload suite at a modest iteration count,
// so every block shape in the corpus (wide phis, dense float kernels,
// irregular control flow) crosses the packet fast path at least once.
// Workloads that cannot take the compiled fast path (444.namd) still run:
// there the comparison pins the hooked fallback against itself, which keeps
// the test from silently going vacuous if the fast-path predicate changes.
func TestCaptureFastMatchesHookedAllWorkloads(t *testing.T) {
	all := workloads.All()
	if len(all) < 29 {
		t.Fatalf("workload suite shrank: %d workloads, want >= 29", len(all))
	}
	for _, w := range all {
		assertCaptureEquivalent(t, w, 400, w.Name != "444.namd")
	}
}
