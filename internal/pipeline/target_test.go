package pipeline_test

import (
	"fmt"
	"slices"
	"testing"

	"needle/internal/hls"
	"needle/internal/pipeline"
	"needle/internal/sim"
	"needle/internal/spec"
	"needle/internal/workloads"
)

// referenceBraidChoice is the braid selection as it was before the sim
// evaluation reused the Frame stage's frame: every candidate, the top braid
// included, is framed afresh by sim.NewBraidTarget, and one that cannot be
// framed is skipped.
func referenceBraidChoice(a *pipeline.Artifacts) sim.Candidate {
	cfg := a.Config
	tr := a.Profile.Trace
	best := sim.Candidate{
		Result: sim.Result{
			Predictor:        "none",
			BaselineCycles:   tr.BaselineCycles,
			OffloadCycles:    tr.BaselineCycles,
			BaselineEnergyPJ: tr.BaselineEnergyPJ,
			OffloadEnergyPJ:  tr.BaselineEnergyPJ,
		},
		Policy: "none",
	}
	for i := 0; i < cfg.SelectTopK && i < len(a.Select.Braids); i++ {
		br := a.Select.Braids[i]
		tgt, err := sim.NewBraidTarget(tr.AM, tr.Profile, br, cfg.Sim)
		if err != nil {
			continue
		}
		for _, pred := range []spec.Predictor{spec.NewHistory(cfg.Sim.HistBits), spec.Always{}} {
			res := sim.Evaluate(tr, []sim.Lane{{Target: tgt, Pred: pred}}, cfg.Sim)[0]
			if res.OffloadEnergyPJ > res.BaselineEnergyPJ {
				continue
			}
			if res.OffloadCycles < best.Result.OffloadCycles {
				best = sim.Candidate{Result: res, Braid: br, Policy: pred.Name()}
			}
		}
	}
	return best
}

// sameCandidate reports whether two candidates choose the same braid under
// the same policy with the same result (floats compared by their shortest
// exact decimal form).
func sameCandidate(a, b sim.Candidate) bool {
	return a.Braid == b.Braid && a.Policy == b.Policy &&
		fmt.Sprintf("%+v", a.Result) == fmt.Sprintf("%+v", b.Result)
}

// TestBackendsRegisteredInOrder pins the Target stage's evaluations and
// their order: sim, then hls.
func TestBackendsRegisteredInOrder(t *testing.T) {
	var got []string
	for _, b := range pipeline.Backends() {
		got = append(got, b.Name())
	}
	if want := []string{"sim", "hls"}; !slices.Equal(got, want) {
		t.Fatalf("backends %v, want %v", got, want)
	}
}

// The hls evaluation degrades to the zero report, not an error, when the
// workload formed no hot-braid frame.
func TestFrameBackendsWithoutFrame(t *testing.T) {
	a := &pipeline.Artifacts{
		Config: pipeline.DefaultConfig(),
		Frame:  &pipeline.FrameArtifact{},
	}
	out, err := pipeline.Backends()[1].Evaluate(a)
	if err != nil {
		t.Fatalf("hls: %v", err)
	}
	if out.HLS != (hls.Report{}) {
		t.Fatalf("HLS report not zero: %+v", out.HLS)
	}
}

// TestSimReusesHotBraidFrame pins that the sim evaluation's braid choice,
// which reuses the Frame stage's hot-braid frame, is the one framing the
// top braid afresh gives, on every workload at default size — both on a
// cold run and on a warm one, whose profile and braids are decoded from a
// disk store and whose frame is built on those decoded braids.
func TestSimReusesHotBraidFrame(t *testing.T) {
	all := workloads.All()
	if len(all) < 29 {
		t.Fatalf("workload suite shrank: %d workloads, want >= 29", len(all))
	}
	dir := t.TempDir()
	cfg := pipeline.DefaultConfig()
	for _, pass := range []string{"cold", "warm"} {
		store, err := pipeline.NewDiskStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range all {
			p, err := w.Program(0)
			if err != nil {
				t.Fatal(err)
			}
			a, err := pipeline.Run(p, cfg, pipeline.RunOptions{Store: store})
			if err != nil {
				t.Fatalf("%s %s: %v", pass, w.Name, err)
			}
			got, want := a.Target.BraidChoice, referenceBraidChoice(a)
			if !sameCandidate(got, want) {
				t.Fatalf("%s %s: braid choice differs from framing afresh\n got  %s %+v\n want %s %+v",
					pass, w.Name, got.Policy, got.Result, want.Policy, want.Result)
			}
		}
		if pass == "warm" {
			for _, stage := range []string{"profile", "select"} {
				if hits := store.Stats()[stage].DiskHits; hits != int64(len(all)) {
					t.Fatalf("warm pass decoded %d %s artifacts from disk, want %d", hits, stage, len(all))
				}
			}
		}
	}
}
