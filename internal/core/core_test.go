package core

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"needle/internal/obs"
	"needle/internal/pm"
	"needle/internal/sim"
	"needle/internal/workloads"
)

func analyze(t testing.TB, name string, n int) *Analysis {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("unknown workload %q", name)
	}
	cfg := DefaultConfig()
	cfg.N = n
	a, err := New().RunWorkload(context.Background(), w, cfg)
	if err != nil {
		t.Fatalf("RunWorkload(%s): %v", name, err)
	}
	return a
}

func TestAnalyzeProducesEverything(t *testing.T) {
	a := analyze(t, "456.hmmer", 1500)
	if a.Profile == nil || a.Trace == nil {
		t.Fatal("missing profile/trace")
	}
	if a.Profile.NumExecutedPaths() == 0 {
		t.Fatal("no paths executed")
	}
	if len(a.Braids) == 0 {
		t.Fatal("no braids formed")
	}
	if a.CFStats.Branches == 0 {
		t.Fatal("characterization empty")
	}
	if a.HotBraidFrame == nil {
		t.Fatal("no hot braid frame")
	}
	if a.HLS.ALMs <= 0 {
		t.Fatal("no HLS estimate")
	}
	if a.PathOracle.BaselineCycles != a.Trace.BaselineCycles {
		t.Fatal("oracle result disconnected from trace")
	}
}

func TestAnalyzeSupportingRegions(t *testing.T) {
	a := analyze(t, "164.gzip", 1500)
	sb := a.Superblock()
	if sb == nil || len(sb.Blocks) == 0 {
		t.Fatal("no superblock")
	}
	hb := a.Hyperblock()
	if hb == nil || hb.NumOps() == 0 {
		t.Fatal("no hyperblock")
	}
	// The hyperblock never shrinks below its seed block.
	if hb.SizeVsBlock() < 1 {
		t.Fatalf("hyperblock smaller than its entry block: %v", hb.SizeVsBlock())
	}
}

func TestPathFrameRanks(t *testing.T) {
	a := analyze(t, "453.povray", 1500)
	fr0, err := a.PathFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	if fr0.NumOps() == 0 {
		t.Fatal("empty frame")
	}
	if _, err := a.PathFrame(1); err != nil {
		t.Fatalf("rank-1 frame: %v", err)
	}
	if _, err := a.PathFrame(1 << 20); err == nil {
		t.Fatal("expected error for absurd rank")
	}
	if _, err := a.PathFrame(-1); err == nil {
		t.Fatal("expected error for negative rank")
	}
}

// TestOptAnalysisManager: under Config.Opt the analyzed function is the
// Opt stage's, so the Analysis hands out the Opt stage's manager and
// follow-up region construction never computes analyses in the Inline
// stage's (store-shared) manager.
func TestOptAnalysisManager(t *testing.T) {
	w := workloads.ByName("164.gzip")
	a, err := New().RunWorkload(context.Background(), w, Config{N: 800, Opt: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Artifacts.Opt == nil {
		t.Fatal("Opt stage did not run")
	}
	if a.AM != a.Artifacts.Opt.AM {
		t.Fatal("Analysis.AM is not the Opt stage's manager")
	}
	before := a.Artifacts.Inline.AM.Stats().Misses
	if _, err := a.PathFrame(0); err != nil {
		t.Fatal(err)
	}
	if a.Hyperblock() == nil {
		t.Fatal("no hyperblock")
	}
	if after := a.Artifacts.Inline.AM.Stats().Misses; after != before {
		t.Fatalf("PathFrame/Hyperblock computed %d analyses in the Inline manager", after-before)
	}
}

// TestDefaultSweepSkipsSemanticAnalyses: the semantic analyses exist for
// vet; a default sweep over every workload computes none of them in any
// artifact manager.
func TestDefaultSweepSkipsSemanticAnalyses(t *testing.T) {
	as, err := New().RunAll(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 29 {
		t.Fatalf("swept %d workloads, want 29", len(as))
	}
	for _, a := range as {
		ams := []*pm.Manager{a.Artifacts.Inline.AM}
		if a.Artifacts.Opt != nil {
			ams = append(ams, a.Artifacts.Opt.AM)
		}
		for _, am := range ams {
			st := am.Stats()
			for _, k := range []pm.Kind{pm.KindSCCP, pm.KindRanges, pm.KindMemDep} {
				if n := st.Computed[k]; n != 0 {
					t.Errorf("%s: %v computed %d times", a.Workload.Name, k, n)
				}
			}
		}
	}
}

func TestSelectionNeverDegrades(t *testing.T) {
	// The filter-and-rank stage must fall back to no-offload rather than
	// commit to a losing braid.
	for _, name := range []string{"186.crafty", "401.bzip2", "179.art"} {
		a := analyze(t, name, 1500)
		if a.BraidChoice.Result.Improvement < -0.01 {
			t.Errorf("%s: selected braid degrades by %.1f%% (policy %s)",
				name, -a.BraidChoice.Result.Improvement*100, a.BraidChoice.Policy)
		}
	}
}

func TestDefaultConfigFillsZeroValue(t *testing.T) {
	w := workloads.ByName("482.sphinx3")
	a, err := New().RunWorkload(context.Background(), w, Config{N: 800})
	if err != nil {
		t.Fatal(err)
	}
	if d := DefaultConfig(); a.Config.Sim != d.Sim || a.Config.SelectTopK != d.SelectTopK || a.Config.ColdFraction != d.ColdFraction {
		t.Fatalf("zero-value config should be replaced by defaults: %+v", a.Config)
	}
}

func TestConfigNormalizationKeepsCallerFields(t *testing.T) {
	// A caller-supplied Sim and N must survive normalization even when
	// SelectTopK is zero — the old sentinel swap silently replaced the whole
	// Config with DefaultConfig().
	custom := sim.DefaultConfig()
	custom.HistBits = 4
	custom.OOO.Width = 2
	w := workloads.ByName("164.gzip")
	a, err := New().RunWorkload(context.Background(), w, Config{Sim: custom, N: 900})
	if err != nil {
		t.Fatal(err)
	}
	if a.Config.Sim.OOO.Width != 2 || a.Config.Sim.HistBits != 4 {
		t.Fatalf("caller Sim discarded: %+v", a.Config.Sim)
	}
	if a.Config.N != 900 {
		t.Fatalf("caller N discarded: %d", a.Config.N)
	}
	d := DefaultConfig()
	if a.Config.SelectTopK != d.SelectTopK || a.Config.ColdFraction != d.ColdFraction {
		t.Fatalf("zero fields not defaulted: %+v", a.Config)
	}
}

func TestRunAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	as, err := New(WithJobs(2)).RunAll(ctx, Config{N: 600})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (results %v)", err, as != nil)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
	// Serial path honors cancellation too.
	if _, err := New(WithJobs(1)).RunAll(ctx, Config{N: 600}); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial path: want context.Canceled, got %v", err)
	}
}

// TestRunAllStopsAtFirstFailure: when every workload fails, a one-worker
// sweep starts only the first, and a sweep at any pool size returns the
// first-registered workload's error.
func TestRunAllStopsAtFirstFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 600
	cfg.Sim.MaxSteps = 10
	want := ""
	for _, jobs := range []int{1, 4} {
		var started []string
		_, err := New(WithJobs(jobs), WithProgress(func(p Progress) {
			started = append(started, p.Workload.Name)
		})).RunAll(context.Background(), cfg)
		if err == nil {
			t.Fatalf("-j %d: a sweep capped at 10 steps succeeded", jobs)
		}
		if jobs == 1 {
			want = err.Error()
			if len(started) != 1 || started[0] != workloads.All()[0].Name {
				t.Errorf("-j 1 ran %v after the first failure, want only %s", started, workloads.All()[0].Name)
			}
		}
		if err.Error() != want {
			t.Errorf("-j %d: error %q, want the first workload's %q", jobs, err, want)
		}
	}
}

func TestRunAllMidSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
		close(done)
	}()
	_, err := New(WithJobs(2)).RunAll(ctx, Config{N: 1200})
	<-done
	// Either the sweep finished before the cancel landed (nil) or it must
	// report context.Canceled — never a partial, unexplained result.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestAnalyzerRunAllRegistrationOrder(t *testing.T) {
	as, err := New(WithJobs(2)).RunAll(context.Background(), Config{N: 1500})
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads.All()
	if len(as) != len(ws) {
		t.Fatalf("got %d analyses, want %d", len(as), len(ws))
	}
	for i, a := range as {
		if a.Workload != ws[i] {
			t.Fatalf("result %d out of registration order", i)
		}
	}
}

func TestObservabilitySpansAndCounters(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	obs.Reset()
	if _, err := New(WithJobs(2)).RunAll(context.Background(), Config{N: 1500}); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]int)
	for _, s := range obs.Default().Spans() {
		names[s.Name]++
	}
	nw := len(workloads.All())
	// One span per pipeline stage per workload ("inline", "profile",
	// "select", "frame", "target"), their characteristic children
	// ("capture" under profile, "characterize"/"braids" under select,
	// "target: *" under target and "target: sim: *" under target: sim),
	// plus the sweep root and the per-worker utilization spans.
	for _, stage := range []string{
		"inline", "profile", "select", "frame", "target",
		"capture", "characterize", "braids",
		"target: sim: build", "target: sim: replay",
		"target: sim", "target: hls",
	} {
		if names[stage] != nw {
			t.Errorf("stage %q: %d spans, want %d", stage, names[stage], nw)
		}
	}
	if names["sweep"] != 1 {
		t.Errorf("sweep root spans: %d, want 1", names["sweep"])
	}
	if names["worker-1"] != 1 || names["worker-2"] != 1 {
		t.Errorf("worker spans missing: %v / %v", names["worker-1"], names["worker-2"])
	}
	if got := names["analyze 164.gzip"]; got != 1 {
		t.Errorf("analyze span for 164.gzip: %d, want 1", got)
	}
	for _, c := range []string{"core.analyses", "pipeline.runs", "pm.cache.hits",
		"pm.cache.misses", "interp.runs.fast", "interp.instrs.fast", "sim.captures"} {
		if v := obs.GetCounter(c).Value(); v <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, v)
		}
	}
	for _, c := range []string{"core.analyses", "pipeline.runs"} {
		if v := obs.GetCounter(c).Value(); v != int64(nw) {
			t.Errorf("%s = %d, want %d", c, v, nw)
		}
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	a := analyze(t, "164.gzip", 1200)
	data, err := MarshalSummaries([]*Analysis{a})
	if err != nil {
		t.Fatal(err)
	}
	var back []Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back) != 1 || back[0].Workload != "164.gzip" {
		t.Fatalf("round trip lost data: %+v", back)
	}
	s := back[0]
	if s.ExecutedPaths == 0 || s.BaselineCycles == 0 || s.Braids == 0 {
		t.Fatalf("summary incomplete: %+v", s)
	}
	if s.Braid.Coverage < 0 || s.Braid.Coverage > 1 {
		t.Fatalf("braid coverage out of range: %v", s.Braid.Coverage)
	}
}
