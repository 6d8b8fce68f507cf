package core

import (
	"bytes"
	"context"
	"testing"

	"needle/internal/pipeline"
)

// TestSweepWarmStartByteIdentical is the acceptance test for the persistent
// artifact store: a full sweep persisted to disk, then re-run through a
// second DiskStore on the same directory (fresh memory tier — a new
// process's view), must produce byte-identical JSON summaries, with every
// persisted stage of every workload served from disk and inline and frame
// recomputed around the decoded artifacts. Both must also match a
// storeless fresh sweep. The -O case builds the frame on a disk-decoded
// optimized function.
func TestSweepWarmStartByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-sweep differential; skipped in -short")
	}
	for _, tc := range []struct {
		name string
		opt  bool
		// persisted and stages count, per workload, the stages served
		// from disk (opt, profile, select) and the cacheable stages that
		// run (each misses the memory tier once).
		persisted, stages int64
	}{
		{"default", false, 2, 4},
		{"opt", true, 3, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := DefaultConfig()
			cfg.N = 900
			cfg.Opt = tc.opt
			ctx := context.Background()

			cold, err := pipeline.NewDiskStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			as1, err := New(WithJobs(2), WithStore(cold)).RunAll(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			j1, err := MarshalSummaries(as1)
			if err != nil {
				t.Fatal(err)
			}

			warm, err := pipeline.NewDiskStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			as2, err := New(WithJobs(2), WithStore(warm)).RunAll(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			j2, err := MarshalSummaries(as2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1, j2) {
				t.Errorf("warm-start sweep JSON differs from cold sweep\ncold: %d bytes\nwarm: %d bytes", len(j1), len(j2))
			}

			// Every persisted stage of every workload must have come off
			// disk, and every cacheable stage missed the memory tier once.
			var diskHits, misses int64
			for _, cs := range warm.Stats() {
				diskHits += cs.DiskHits
				misses += cs.Misses
			}
			n := int64(len(as1))
			if want := n * tc.persisted; diskHits != want {
				t.Errorf("warm sweep had %d disk hits, want %d (stats %+v)", diskHits, want, warm.Stats())
			}
			if want := n * tc.stages; misses != want {
				t.Errorf("warm sweep memory misses = %d, want %d (each key missed once, then filled from disk or recomputed)", misses, want)
			}

			// A storeless run is the ground truth both tiers must reproduce.
			as3, err := New(WithJobs(2)).RunAll(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			j3, err := MarshalSummaries(as3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1, j3) {
				t.Error("stored sweep JSON differs from storeless sweep")
			}
		})
	}
}
