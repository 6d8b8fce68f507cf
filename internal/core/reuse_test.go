package core

import (
	"bytes"
	"context"
	"testing"

	"needle/internal/obs"
	"needle/internal/pipeline"
	"needle/internal/workloads"
)

// TestCachedSweepByteIdenticalToFresh is the refactor's differential gate:
// the staged pipeline with artifact sharing must produce byte-identical
// JSON summaries to fresh per-workload analyses, across every registered
// workload.
func TestCachedSweepByteIdenticalToFresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 1200

	fresh, err := New(WithJobs(2)).RunAll(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	freshJSON, err := MarshalSummaries(fresh)
	if err != nil {
		t.Fatal(err)
	}

	cache := pipeline.NewCache()
	cached, err := New(WithJobs(2), WithStore(cache)).RunAll(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cachedJSON, err := MarshalSummaries(cached)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(freshJSON, cachedJSON) {
		t.Fatalf("cached sweep diverges from fresh analyses:\nfresh:\n%s\ncached:\n%s",
			freshJSON, cachedJSON)
	}

	// A second sweep through the same cache reuses every cacheable artifact
	// and still reproduces the same bytes.
	again, err := New(WithJobs(2), WithStore(cache)).RunAll(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	againJSON, err := MarshalSummaries(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(freshJSON, againJSON) {
		t.Fatal("warm-cache sweep diverges from fresh analyses")
	}
	nw := len(workloads.All())
	st := cache.Stats()
	for _, stage := range []string{"inline", "profile", "select", "frame"} {
		s := st[stage]
		if s.Misses != int64(nw) {
			t.Errorf("stage %s: %d misses, want %d (one per workload)", stage, s.Misses, nw)
		}
		if s.Hits != int64(nw) {
			t.Errorf("stage %s: %d hits, want %d (full reuse on second sweep)", stage, s.Hits, nw)
		}
	}
	if _, ok := st["target"]; ok {
		t.Error("target stage artifacts must never be cached")
	}
}

// TestDownstreamKnobSweepReusesUpstream pins the cross-config reuse
// contract: sweeping a downstream-only knob (predictor history bits)
// through one cache profiles the workload exactly once and shares the
// captured trace across every configuration.
func TestDownstreamKnobSweepReusesUpstream(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	obs.Reset()

	w := workloads.ByName("186.crafty")
	if w == nil {
		t.Fatal("no 186.crafty workload")
	}
	cache := pipeline.NewCache()
	az := New(WithStore(cache))
	histBits := []uint{2, 4, 8, 12, 16}
	as := make([]*Analysis, len(histBits))
	for i, hb := range histBits {
		cfg := DefaultConfig()
		cfg.N = 1200
		cfg.Sim.HistBits = hb
		a, err := az.RunWorkload(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("HistBits=%d: %v", hb, err)
		}
		as[i] = a
	}

	// One capture serves the whole sweep...
	if v := obs.GetCounter("sim.captures").Value(); v != 1 {
		t.Errorf("sim.captures = %d, want 1 (profile artifact shared)", v)
	}
	// ...because every upstream stage hit the cache after the first run.
	runs := int64(len(histBits))
	for _, stage := range []string{"inline", "profile", "select", "frame"} {
		s := cache.Stats()[stage]
		if s.Misses != 1 || s.Hits != runs-1 {
			t.Errorf("stage %s: %+v, want 1 miss / %d hits", stage, s, runs-1)
		}
	}
	if v := obs.GetCounter("pipeline.cache.hits").Value(); v < 4*(runs-1) {
		t.Errorf("pipeline.cache.hits = %d, want >= %d", v, 4*(runs-1))
	}

	// The shared artifacts are literally shared, not recomputed equals.
	for i := 1; i < len(as); i++ {
		if as[i].Trace != as[0].Trace {
			t.Fatalf("run %d recaptured its trace", i)
		}
		if as[i].AM != as[0].AM {
			t.Fatalf("run %d rebuilt its analysis manager", i)
		}
		if as[i].HotBraidFrame != as[0].HotBraidFrame {
			t.Fatalf("run %d rebuilt the hot braid frame", i)
		}
	}

	// The knob still does its job downstream: each config re-evaluates the
	// predictor against the shared trace, and the history-bits choice is
	// visible in the results (degenerate 2-bit histories must not match the
	// 16-bit run everywhere on this path-rich workload).
	if as[0].PathHistory == as[len(as)-1].PathHistory &&
		as[0].BraidChoice.Result == as[len(as)-1].BraidChoice.Result {
		t.Log("warning: HistBits sweep produced identical results; knob may be inert on this workload")
	}
}
