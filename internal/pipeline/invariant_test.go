package pipeline

import (
	"reflect"
	"sync"
	"testing"

	"needle/internal/analysis"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/obs"
	"needle/internal/pm"
	"needle/internal/workloads"
)

// printingStore is a Cache that records, for every Inline and Opt artifact
// it computes, the printed text of the artifact's function at the moment
// the stage returned.
type printingStore struct {
	*Cache
	mu   sync.Mutex
	text map[*ir.Function]string
}

func (s *printingStore) Do(st *Stage, a *Artifacts, key string, compute func() (any, error)) (any, error, bool) {
	return s.Cache.Do(st, a, key, func() (any, error) {
		out, err := compute()
		var f *ir.Function
		switch art := out.(type) {
		case *InlineArtifact:
			f = art.F
		case *OptArtifact:
			f = art.F
		}
		if f != nil {
			s.mu.Lock()
			s.text[f] = ir.Print(f)
			s.mu.Unlock()
		}
		return out, err
	})
}

// TestStageFunctionsStayUnchanged pins the invariant pm.Manager rests on:
// once the Inline or Opt stage returns its function, no later stage
// changes it, so every analysis its manager cached still equals a fresh
// computation after the Target stage.
func TestStageFunctionsStayUnchanged(t *testing.T) {
	for _, opt := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Opt = opt
		store := &printingStore{Cache: NewCache(), text: map[*ir.Function]string{}}
		for _, w := range workloads.All() {
			a, err := Run(prog(t, w, 500), cfg, RunOptions{Store: store})
			if err != nil {
				t.Fatalf("%s (opt=%t): %v", w.Name, opt, err)
			}
			_, hot := a.HotFunc()
			check := func(stage string, am *pm.Manager, f *ir.Function) {
				label := w.Name + "/" + stage
				if got, want := ir.Print(f), store.text[f]; got != want {
					t.Errorf("%s: function changed after its stage returned\nnow:\n%s\nthen:\n%s", label, got, want)
				}
				checkCachedMatchesFresh(t, label, am, f, f == hot)
			}
			check("inline", a.Inline.AM, a.Inline.F)
			if opt {
				check("opt", a.Opt.AM, a.Opt.F)
			}
		}
	}
}

// checkCachedMatchesFresh compares am's cached dominators, liveness and
// execution plan of f with fresh computations. The hot function's manager
// must have computed each exactly once; under -O the inline manager
// computes none of them, so there is nothing of its to compare.
func checkCachedMatchesFresh(t *testing.T, label string, am *pm.Manager, f *ir.Function, hot bool) {
	t.Helper()
	computed := am.Stats().Computed
	for _, c := range []struct {
		kind          pm.Kind
		cached, fresh func() any
	}{
		{pm.KindDominators, func() any { return am.Dominators(f) }, func() any { return analysis.Dominators(f) }},
		{pm.KindLiveness, func() any { return am.Liveness(f) }, func() any { return analysis.ComputeLiveness(f) }},
		{pm.KindExecPlan, func() any { return am.ExecPlan(f) }, func() any { return interp.BuildPlan(f) }},
	} {
		n := computed[c.kind]
		if hot && n != 1 {
			t.Errorf("%s: %v computed %d times, want 1", label, c.kind, n)
		}
		if n > 0 && !reflect.DeepEqual(c.cached(), c.fresh()) {
			t.Errorf("%s: cached %v differs from a fresh computation", label, c.kind)
		}
	}
}

// TestCaptureSpansStayInTheirRun: two runs share one Cache but record into
// separate registries. The second reuses the first's Inline artifact and
// recomputes Profile (a different ROB size), so each run captures once, and
// each capture span must land in its own run's registry, inside that run's
// profile span.
func TestCaptureSpansStayInTheirRun(t *testing.T) {
	p := prog(t, workloads.ByName("164.gzip"), 300)
	store := NewCache()
	small := DefaultConfig()
	small.Sim.OOO.ROB = 64
	for i, cfg := range []Config{DefaultConfig(), small} {
		var reg obs.Registry
		reg.Enable()
		root := reg.Start("run")
		if _, err := Run(p, cfg, RunOptions{Parent: root, Store: store}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		root.End()
		var captures, profiles []obs.SpanData
		for _, sd := range reg.Spans() {
			switch sd.Name {
			case "capture":
				captures = append(captures, sd)
			case "profile":
				profiles = append(profiles, sd)
			}
		}
		if len(captures) != 1 || len(profiles) != 1 {
			t.Fatalf("run %d: registry holds %d capture and %d profile spans, want 1 each", i, len(captures), len(profiles))
		}
		c, pr := captures[0], profiles[0]
		if c.Track != pr.Track || c.Start < pr.Start || c.Start+c.Dur > pr.Start+pr.Dur {
			t.Errorf("run %d: capture span %+v is not inside profile span %+v", i, c, pr)
		}
	}
}
