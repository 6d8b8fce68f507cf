package pipeline

import (
	"strings"
	"testing"

	"needle/internal/workloads"
)

func TestOptChangesFingerprint(t *testing.T) {
	p := prog(t, workloads.All()[0], 0)
	off := DefaultConfig()
	on := off
	on.Opt = true
	fpOff, fpOn := Fingerprint(p, off), Fingerprint(p, on)
	if fpOff == fpOn {
		t.Fatalf("Opt did not change the fingerprint: %q", fpOff)
	}
	if !strings.Contains(fpOff, "opt=false") || !strings.Contains(fpOn, "opt=true") {
		t.Fatalf("opt key segment missing: off=%q on=%q", fpOff, fpOn)
	}
	// Downstream stages must see the opt segment in their cumulative keys
	// even when the stage is skipped, so optimized and unoptimized runs
	// can never share a profile.
	keys := stageKeys(p, off.WithDefaults())
	for i, st := range stages {
		if st.Name == "profile" && !strings.Contains(keys[i], "opt=false") {
			t.Fatalf("profile key %q missing the opt segment", keys[i])
		}
	}
}

func TestOptStageSkippedByDefault(t *testing.T) {
	p := prog(t, workloads.All()[0], 400)
	cfg := DefaultConfig()
	cfg.N = 400
	cache := NewCache()
	a, err := Run(p, cfg, RunOptions{Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if a.Opt != nil {
		t.Fatal("Opt artifact produced with Opt off")
	}
	if _, ok := cache.Stats()["opt"]; ok {
		t.Fatal("skipped opt stage left cache statistics")
	}
	am, f := a.HotFunc()
	if am != a.Inline.AM || f != a.Inline.F {
		t.Fatal("HotFunc must be the inline artifact when Opt is off")
	}
}

func TestOptRunEndToEnd(t *testing.T) {
	p := prog(t, workloads.All()[0], 400)
	cfg := DefaultConfig()
	cfg.N = 400
	cfg.Opt = true
	a, err := Run(p, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Opt == nil {
		t.Fatal("no Opt artifact with Opt on")
	}
	if a.Opt.F == a.Inline.F {
		t.Fatal("opt stage must work on a clone, not the shared inline function")
	}
	if a.Opt.InstrsAfter > a.Opt.InstrsBefore {
		t.Fatalf("optimization grew the function: %d -> %d instructions",
			a.Opt.InstrsBefore, a.Opt.InstrsAfter)
	}
	am, f := a.HotFunc()
	if am != a.Opt.AM || f != a.Opt.F {
		t.Fatal("HotFunc must be the opt artifact when Opt is on")
	}
	if a.Target == nil || a.Frame == nil {
		t.Fatal("run incomplete")
	}
}

// TestOptWarmStoreRoundTrip: optimized artifacts persist and rehydrate —
// in particular, the profile decoded from disk must attach to the decoded
// optimized function, not the inline one.
func TestOptWarmStoreRoundTrip(t *testing.T) {
	p := prog(t, workloads.All()[0], 400)
	cfg := DefaultConfig()
	cfg.N = 400
	cfg.Opt = true
	store, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(p, cfg, RunOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh memory tier over the same disk directory forces the disk
	// path for every persisted stage.
	warmStore, err := NewDiskStore(store.Dir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(p, cfg, RunOptions{Store: warmStore})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Opt == nil {
		t.Fatal("warm run lost the Opt artifact")
	}
	if warm.Opt.InstrsAfter != cold.Opt.InstrsAfter || warm.Opt.BlocksAfter != cold.Opt.BlocksAfter {
		t.Fatalf("opt artifact drifted through the store: %+v vs %+v", warm.Opt, cold.Opt)
	}
	_, f := warm.HotFunc()
	if f != warm.Opt.F {
		t.Fatal("warm profile attached to the wrong function")
	}
	if got, want := warm.Target.BraidChoice.Result, cold.Target.BraidChoice.Result; got != want {
		t.Fatalf("warm braid choice = %+v, want %+v", got, want)
	}
}

// TestOptAndBaselineNeverCrossHit: with one shared store, an optimized and
// an unoptimized run of the same program at the same size must not share
// any stage artifact downstream of inline.
func TestOptAndBaselineNeverCrossHit(t *testing.T) {
	p := prog(t, workloads.All()[0], 400)
	cache := NewCache()
	base := DefaultConfig()
	base.N = 400
	opt := base
	opt.Opt = true
	aBase, err := Run(p, base, RunOptions{Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	aOpt, err := Run(p, opt, RunOptions{Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	// The inline artifact is upstream of opt and must be shared; the
	// profile must not be.
	if aBase.Inline != aOpt.Inline {
		t.Fatal("inline artifact not shared across opt on/off")
	}
	if aBase.Profile == aOpt.Profile {
		t.Fatal("profile artifact cross-hit between opt on and off")
	}
	if st := cache.Stats()["profile"]; st.Misses != 2 {
		t.Fatalf("profile stats = %+v, want 2 misses (one per mode)", st)
	}
}
