package core

import (
	"context"
	"errors"
	"testing"

	"needle/internal/obs"
	"needle/internal/pipeline"
	"needle/internal/workloads"
)

// TestAnalyzerProgressEvents pins the WithProgress contract: one serialized
// event per workload with a monotonically increasing Done count, carrying
// the completed analysis.
func TestAnalyzerProgressEvents(t *testing.T) {
	var events []Progress
	az := New(WithJobs(4), WithProgress(func(p Progress) {
		// Serialization is part of the contract: appending without a lock
		// is safe exactly because calls never overlap (the race detector
		// checks the rest).
		events = append(events, p)
	}))
	as, err := az.RunAll(context.Background(), Config{N: 600})
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads.All()
	if len(events) != len(ws) {
		t.Fatalf("got %d progress events, want %d", len(events), len(ws))
	}
	seen := make(map[int]bool)
	for i, p := range events {
		if p.Done != i+1 {
			t.Errorf("event %d: Done = %d, want %d", i, p.Done, i+1)
		}
		if p.Total != len(ws) {
			t.Errorf("event %d: Total = %d, want %d", i, p.Total, len(ws))
		}
		if p.Err != nil {
			t.Errorf("event %d: unexpected error %v", i, p.Err)
		}
		if p.Analysis == nil || p.Analysis.Workload != p.Workload {
			t.Errorf("event %d: analysis/workload mismatch", i)
		}
		if p.Workload != ws[p.Index] {
			t.Errorf("event %d: Index %d does not match workload %s", i, p.Index, p.Workload.Name)
		}
		if seen[p.Index] {
			t.Errorf("event %d: duplicate index %d", i, p.Index)
		}
		seen[p.Index] = true
		if p.Analysis != as[p.Index] {
			t.Errorf("event %d: analysis is not the one RunAll returned", i)
		}
	}
}

// TestAnalyzerRequestScopedSpans pins the WithObsSpan contract the daemon's
// per-request Chrome traces rely on: handing the Analyzer a span from a
// private registry routes the entire run's span tree into that registry and
// records nothing on the (disabled) Default registry.
func TestAnalyzerRequestScopedSpans(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("test assumes the Default registry starts disabled")
	}
	defBefore := len(obs.Default().Spans())

	reg := &obs.Registry{}
	reg.Enable()
	root := reg.StartOnTrack("request", 0)
	w := workloads.ByName("164.gzip")
	if _, err := New(WithObsSpan(root)).RunWorkload(context.Background(), w, Config{N: 800}); err != nil {
		t.Fatal(err)
	}
	root.End()

	names := make(map[string]int)
	for _, s := range reg.Spans() {
		names[s.Name]++
	}
	for _, stage := range []string{"inline", "profile", "select", "frame", "target", "capture"} {
		if names[stage] != 1 {
			t.Errorf("request registry: %d %q spans, want 1", names[stage], stage)
		}
	}
	if names["analyze 164.gzip"] != 1 {
		t.Errorf("request registry: missing the analyze root span: %v", names)
	}
	if got := len(obs.Default().Spans()); got != defBefore {
		t.Errorf("Default registry gained %d spans from a request-scoped run", got-defBefore)
	}
}

// TestAnalyzerRunCancellation: a done context stops a single Run between
// stages, and the interruption is never memoized — the same store serves a
// later run correctly.
func TestAnalyzerRunCancellation(t *testing.T) {
	cache := pipeline.NewCache()
	az := New(WithStore(cache))
	w := workloads.ByName("456.hmmer")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := az.RunWorkload(ctx, w, Config{N: 800}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	a, err := az.RunWorkload(context.Background(), w, Config{N: 800})
	if err != nil {
		t.Fatalf("run after cancelled run: %v", err)
	}
	fresh, err := New().RunWorkload(context.Background(), w, Config{N: 800})
	if err != nil {
		t.Fatal(err)
	}
	got, want := Summarize(a), Summarize(fresh)
	if got != want {
		t.Fatalf("post-cancellation run diverges from fresh analysis:\ngot  %+v\nwant %+v", got, want)
	}
}
