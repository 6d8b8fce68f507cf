package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"needle/internal/core"
	"needle/internal/pipeline"
	"needle/internal/program"
	"needle/internal/workloads"
)

// smallPrograms returns a few workloads at a small size, analyzed twice so
// the second run hits the store.
func smallPrograms(t *testing.T) []*program.Program {
	var out []*program.Program
	for _, name := range []string{"164.gzip", "456.hmmer", "429.mcf"} {
		p, err := workloads.ByName(name).Program(300)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p, p)
	}
	return out
}

// analyzeAll runs the programs through one store and returns the summaries.
func analyzeAll(t *testing.T, st pipeline.Store, progs []*program.Program) [][]byte {
	cfg := core.DefaultConfig()
	cfg.N = 300
	az := core.New(core.WithStore(st))
	var out [][]byte
	for _, p := range progs {
		a, err := az.Run(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		body, err := summaryBytes(a)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

// TestTimingStoreTransparent pins that the wrapper changes nothing the
// pipeline sees: same outputs and the same hit/miss stats as the store it
// wraps, for the memory tier and for a warm disk tier.
func TestTimingStoreTransparent(t *testing.T) {
	progs := smallPrograms(t)

	plain := pipeline.NewCache()
	ts := newTimingStore(pipeline.NewCache())
	want, got := analyzeAll(t, plain, progs), analyzeAll(t, ts, progs)
	if !reflect.DeepEqual(got, want) {
		t.Error("summaries through the wrapper differ")
	}
	if !reflect.DeepEqual(ts.Stats(), plain.Stats()) {
		t.Errorf("stats through the wrapper = %v, want %v", ts.Stats(), plain.Stats())
	}
	if l := ts.lookups(); !reflect.DeepEqual(l, plain.Stats()) {
		t.Errorf("lookups since reset = %v, want %v", l, plain.Stats())
	}
	s := ts.stages["profile"]
	if s == nil || s.computes != 3 || s.memHits != 3 {
		t.Errorf("profile stage timings = %+v, want 3 computes and 3 memory hits", s)
	}

	// Disk tier: fill two directories the same way, then read each back
	// through a fresh handle, one of them wrapped.
	open := func() *pipeline.DiskStore {
		ds, err := pipeline.NewDiskStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		analyzeAll(t, ds, progs)
		ds, err = pipeline.NewDiskStore(ds.Dir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	plainDisk, wrappedDisk := open(), open()
	ts = newTimingStore(wrappedDisk)
	want, got = analyzeAll(t, plainDisk, progs), analyzeAll(t, ts, progs)
	if !reflect.DeepEqual(got, want) {
		t.Error("summaries through the wrapped disk store differ")
	}
	if !reflect.DeepEqual(ts.Stats(), plainDisk.Stats()) {
		t.Errorf("disk stats through the wrapper = %v, want %v", ts.Stats(), plainDisk.Stats())
	}
	if s := ts.stages["profile"]; s == nil || s.diskHits != 3 || s.memHits != 3 || s.computes != 0 {
		t.Errorf("warm disk profile timings = %+v, want 3 disk hits and 3 memory hits", s)
	}
	for i := range want {
		if !bytes.Equal(want[i], analyzeAll(t, pipeline.NewCache(), progs[i:i+1])[0]) {
			t.Errorf("%s: warm-start summary differs from a cold run", progs[i].Name)
		}
	}
}

// TestTimingStoreReplaceKeepsManagerMisses pins that pointing the wrapper
// at a new store forgets the old store's analysis managers (so their
// artifacts can be freed) but keeps the misses they counted.
func TestTimingStoreReplaceKeepsManagerMisses(t *testing.T) {
	progs := smallPrograms(t)
	ts := newTimingStore(pipeline.NewCache())
	analyzeAll(t, ts, progs)
	before := ts.pmMisses()
	if before == 0 || len(ts.ams) == 0 {
		t.Fatalf("after one store: %d misses over %d managers, want some", before, len(ts.ams))
	}
	ts.setInner(pipeline.NewCache())
	if len(ts.ams) != 0 {
		t.Errorf("%d managers of the replaced store still held", len(ts.ams))
	}
	if got := ts.pmMisses(); got != before {
		t.Errorf("misses after replacing the store = %d, want %d", got, before)
	}
	analyzeAll(t, ts, progs)
	if got := ts.pmMisses(); got != 2*before {
		t.Errorf("misses after a second identical store = %d, want %d", got, 2*before)
	}
}
