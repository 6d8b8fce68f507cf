package pipeline_test

import (
	"sync"
	"testing"

	"needle/internal/pipeline"
	"needle/internal/sim"
	"needle/internal/workloads"
)

// simOutcome is the comparable part of the sim evaluation: every result,
// and the chosen braid policy.
type simOutcome struct {
	PathOracle, PathHistory, Braid, Hyperblock sim.Result
	Policy                                     string
}

func simOutcomeOf(a *pipeline.Artifacts) simOutcome {
	t := a.Target
	return simOutcome{t.PathOracle, t.PathHistory, t.BraidChoice.Result, t.Hyperblock, t.BraidChoice.Policy}
}

// TestConcurrentTargetsShareProfile runs Target stages that differ only in
// a downstream knob concurrently over one Cache, so they replay one shared
// Profile artifact at the same time. Each must report exactly what a run
// with a store of its own reports. blackscholes has a small path-ID space,
// 186.crafty one far beyond the interpreter's dense table bound.
func TestConcurrentTargetsShareProfile(t *testing.T) {
	for _, name := range []string{"blackscholes", "186.crafty"} {
		p, err := workloads.ByName(name).Program(400)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := make([]pipeline.Config, 4)
		want := make([]simOutcome, len(cfgs))
		for i := range cfgs {
			cfgs[i] = pipeline.DefaultConfig()
			cfgs[i].N = 400
			cfgs[i].Sim.HistBits = uint(8 + i)
			a, err := pipeline.Run(p, cfgs[i], pipeline.RunOptions{Store: pipeline.NewCache()})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want[i] = simOutcomeOf(a)
		}

		shared := pipeline.NewCache()
		arts := make([]*pipeline.Artifacts, len(cfgs))
		errs := make([]error, len(cfgs))
		var wg sync.WaitGroup
		for i := range cfgs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				arts[i], errs[i] = pipeline.Run(p, cfgs[i], pipeline.RunOptions{Store: shared})
			}(i)
		}
		wg.Wait()
		for i, a := range arts {
			if errs[i] != nil {
				t.Fatalf("%s HistBits=%d: %v", name, cfgs[i].Sim.HistBits, errs[i])
			}
			if a.Profile != arts[0].Profile {
				t.Fatalf("%s: concurrent runs did not share the Profile artifact", name)
			}
			if got := simOutcomeOf(a); got != want[i] {
				t.Errorf("%s HistBits=%d: shared-profile run differs\n got  %+v\n want %+v",
					name, cfgs[i].Sim.HistBits, got, want[i])
			}
		}
	}
}
