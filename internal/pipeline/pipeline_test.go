package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"needle/internal/program"
	"needle/internal/sim"
	"needle/internal/workloads"
)

// prog materializes a workload at size n as the pipeline's Program input.
func prog(t *testing.T, w *workloads.Workload, n int) *program.Program {
	t.Helper()
	p, err := w.Program(n)
	if err != nil {
		t.Fatalf("program %s: %v", w.Name, err)
	}
	return p
}

func TestStageNamesInOrder(t *testing.T) {
	want := []string{"inline", "opt", "profile", "select", "frame", "target"}
	got := StageNames()
	if len(got) != len(want) {
		t.Fatalf("StageNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestOnlyTargetStageUncached(t *testing.T) {
	for _, st := range stages {
		wantCacheable := st.Name != "target"
		if st.cacheable != wantCacheable {
			t.Errorf("stage %q cacheable = %v, want %v", st.Name, st.cacheable, wantCacheable)
		}
	}
}

// fingerprintOf returns the named stage's fingerprint of cfg.
func fingerprintOf(t *testing.T, name string, cfg Config) string {
	t.Helper()
	for _, st := range stages {
		if st.Name == name {
			return string(st.Fingerprint(nil, cfg))
		}
	}
	t.Fatalf("no stage %q", name)
	return ""
}

func TestStageFingerprintsIsolateKnobs(t *testing.T) {
	base := DefaultConfig()

	// A downstream-only knob (predictor history bits) must leave every
	// upstream fingerprint unchanged — that is what makes ablation sweeps
	// share the expensive artifacts — while changing the target's.
	hist := base
	hist.Sim.HistBits = 16
	for _, stage := range []string{"inline", "profile", "select", "frame"} {
		if a, b := fingerprintOf(t, stage, base), fingerprintOf(t, stage, hist); a != b {
			t.Errorf("HistBits changed %s fingerprint: %q vs %q", stage, a, b)
		}
	}
	if a, b := fingerprintOf(t, "target", base), fingerprintOf(t, "target", hist); a == b {
		t.Error("HistBits did not change the target fingerprint")
	}

	// The problem size feeds the very first stage.
	n := base
	n.N = 1234
	if a, b := fingerprintOf(t, "inline", base), fingerprintOf(t, "inline", n); a == b {
		t.Error("N did not change the inline fingerprint")
	}

	// Host-model knobs invalidate the captured profile.
	ooo := base
	ooo.Sim.OOO.Width = 2
	if a, b := fingerprintOf(t, "profile", base), fingerprintOf(t, "profile", ooo); a == b {
		t.Error("OOO width did not change the profile fingerprint")
	}

	// CGRA geometry is downstream of the profile.
	cg := base
	cg.Sim.CGRA.Rows = 9
	if a, b := fingerprintOf(t, "profile", base), fingerprintOf(t, "profile", cg); a != b {
		t.Errorf("CGRA geometry changed the profile fingerprint: %q vs %q", a, b)
	}
	if a, b := fingerprintOf(t, "target", base), fingerprintOf(t, "target", cg); a == b {
		t.Error("CGRA geometry did not change the target fingerprint")
	}

	// Frame options invalidate the frame but not the profile.
	fo := base
	fo.Sim.Frame.UndoOpsPerStore = 9
	if a, b := fingerprintOf(t, "frame", base), fingerprintOf(t, "frame", fo); a == b {
		t.Error("frame options did not change the frame fingerprint")
	}
	if a, b := fingerprintOf(t, "profile", base), fingerprintOf(t, "profile", fo); a != b {
		t.Errorf("frame options changed the profile fingerprint: %q vs %q", a, b)
	}
}

func TestCacheHitMissAndStats(t *testing.T) {
	c := NewCache()
	calls := 0
	f := func() (any, error) { calls++; return 42, nil }

	v, err, hit := c.do("profile", "k1", f)
	if err != nil || hit || v.(int) != 42 {
		t.Fatalf("first do: v=%v err=%v hit=%v", v, err, hit)
	}
	v, err, hit = c.do("profile", "k1", f)
	if err != nil || !hit || v.(int) != 42 {
		t.Fatalf("second do: v=%v err=%v hit=%v", v, err, hit)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if _, _, hit := c.do("profile", "k2", f); hit {
		t.Fatal("distinct key reported a hit")
	}
	st := c.Stats()["profile"]
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
	if c.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", c.Len())
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache()
	calls := 0
	boom := errors.New("boom")
	f := func() (any, error) { calls++; return nil, boom }
	if _, err, _ := c.do("inline", "bad", f); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if _, err, hit := c.do("inline", "bad", f); !errors.Is(err, boom) || !hit {
		t.Fatalf("cached error: err=%v hit=%v", err, hit)
	}
	if calls != 1 {
		t.Fatalf("failing compute ran %d times, want 1", calls)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	var mu sync.Mutex
	calls := 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, _ := c.do("select", "same", func() (any, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				return "artifact", nil
			})
			if err != nil || v.(string) != "artifact" {
				t.Errorf("do: v=%v err=%v", v, err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", calls)
	}
	st := c.Stats()["select"]
	if st.Hits+st.Misses != 16 {
		t.Fatalf("stats lost calls: %+v", st)
	}
}

func TestWithDefaultsIdempotent(t *testing.T) {
	cfg := Config{N: 700}.WithDefaults()
	if cfg != cfg.WithDefaults() {
		t.Fatal("WithDefaults not idempotent")
	}
	d := DefaultConfig()
	if cfg.SelectTopK != d.SelectTopK || cfg.ColdFraction != d.ColdFraction || cfg.Sim != d.Sim {
		t.Fatalf("zero fields not filled: %+v", cfg)
	}
	if cfg.N != 700 {
		t.Fatalf("caller N lost: %d", cfg.N)
	}
}

// TestCumulativeKeysEmbedUpstream pins the cache-key construction: a
// stage's key embeds every upstream fingerprint, so an upstream knob change
// can never collide downstream artifacts.
func TestCumulativeKeysEmbedUpstream(t *testing.T) {
	cfg := DefaultConfig()
	key := "w"
	for _, st := range stages {
		key += "|" + st.Name + "{" + string(st.Fingerprint(nil, cfg)) + "}"
		if st.Name == "frame" {
			for _, up := range []string{"inline{", "profile{", "select{"} {
				if !strings.Contains(key, up) {
					t.Errorf("frame key %q missing upstream %q", key, up)
				}
			}
			if !strings.Contains(key, fmt.Sprintf("n=%d", cfg.N)) {
				t.Errorf("frame key %q missing problem size", key)
			}
		}
	}
}

// TestFingerprintNormalizesAndDiscriminates pins the exported run
// fingerprint the serve daemon's singleflight keys on: the zero Config and
// an explicit DefaultConfig() collapse to the same key, while workload or
// config changes (upstream or downstream) produce distinct keys.
func TestFingerprintNormalizesAndDiscriminates(t *testing.T) {
	ws := workloads.All()
	p, p2 := prog(t, ws[0], 0), prog(t, ws[1], 0)
	if Fingerprint(p, Config{}) != Fingerprint(p, DefaultConfig()) {
		t.Error("zero config and DefaultConfig() must share a fingerprint")
	}
	if Fingerprint(p, Config{}) == Fingerprint(p2, Config{}) {
		t.Error("different programs must not share a fingerprint")
	}
	big := DefaultConfig()
	big.N = 4096
	if Fingerprint(p, big) == Fingerprint(p, DefaultConfig()) {
		t.Error("problem size must change the fingerprint")
	}
	hist := DefaultConfig()
	hist.Sim.HistBits = 16
	if Fingerprint(p, hist) == Fingerprint(p, DefaultConfig()) {
		t.Error("a downstream knob must still change the full fingerprint")
	}
	last := stageKeys(p, DefaultConfig().WithDefaults())
	if Fingerprint(p, DefaultConfig()) != last[len(last)-1] {
		t.Error("Fingerprint must equal the final cumulative stage key Run uses")
	}
}

// referenceFingerprints are the stage fingerprints as strings, the formula
// stageKeys' buffer must reproduce byte for byte.
var referenceFingerprints = map[string]func(Config) string{
	"inline": func(c Config) string { return fmt.Sprintf("n=%d", c.N) },
	"opt":    func(c Config) string { return fmt.Sprintf("opt=%t", c.Opt) },
	"profile": func(c Config) string {
		return fmt.Sprintf("ooo=%+v mem=%+v cpu=%+v maxsteps=%d maxocc=%d",
			c.Sim.OOO, c.Sim.Mem, c.Sim.CPU, c.Sim.MaxSteps, c.Sim.MaxOccurrences)
	},
	"select": func(Config) string { return "" },
	"frame":  func(c Config) string { return fmt.Sprintf("opts=%+v", c.Sim.Frame) },
	"target": func(c Config) string {
		return fmt.Sprintf("cgra=%+v cpu=%+v hist=%d topk=%d cold=%g",
			c.Sim.CGRA, c.Sim.CPU, c.Sim.HistBits, c.SelectTopK, c.ColdFraction)
	},
}

// TestStageKeysMatchReference pins every cumulative stage key to the
// string-concatenation formula, on the default config and on one with Opt
// on and another history width, and pins the allocations of one call:
// Run and serve's Fingerprint each make one per analysis.
func TestStageKeysMatchReference(t *testing.T) {
	p := prog(t, workloads.All()[0], 0)
	other := DefaultConfig()
	other.Opt = true
	other.Sim.HistBits = 16
	for _, cfg := range []Config{DefaultConfig().WithDefaults(), other.WithDefaults()} {
		keys := stageKeys(p, cfg)
		key := p.Key()
		for i, st := range stages {
			key += "|" + st.Name + "{" + referenceFingerprints[st.Name](cfg) + "}"
			if keys[i] != key {
				t.Fatalf("opt=%t: %s key\n%s\nwant\n%s", cfg.Opt, st.Name, keys[i], key)
			}
		}
		if len(key) > keyBytes {
			t.Errorf("a %d-byte key outgrows the %d-byte buffer stageKeys starts with", len(key), keyBytes)
		}
		// The buffer, the string and the key table, plus what the stages'
		// fmt.Appendf calls box: 10 in all, where one string per stage
		// and per concatenation made 20.
		if n := testing.AllocsPerRun(100, func() { stageKeys(p, cfg) }); n > 10 && !raceEnabled {
			t.Errorf("opt=%t: stageKeys allocates %v times, want at most 10", cfg.Opt, n)
		}
	}
}

// TestRunCtxCancelsBetweenStages: a done RunOptions.Ctx stops the run
// before the next stage, returns the context's error, and leaves no
// memoized cancellation behind in the store.
func TestRunCtxCancelsBetweenStages(t *testing.T) {
	p := prog(t, workloads.All()[0], 600)
	cfg := DefaultConfig()
	cfg.N = 600
	cache := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(p, cfg, RunOptions{Store: cache, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("cancelled run memoized %d artifacts before its first stage", n)
	}
	arts, err := Run(p, cfg, RunOptions{Store: cache, Ctx: context.Background()})
	if err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
	if arts.Target == nil || arts.Frame == nil {
		t.Fatal("post-cancellation run incomplete")
	}
}

// TestRunRejectsInvalidConfig: a hardware config sim.Config.Check rejects
// fails Run with sim.ErrConfig before any stage runs, so the CLI reports
// it as a plain error instead of spinning in the CGRA scheduler.
func TestRunRejectsInvalidConfig(t *testing.T) {
	p := prog(t, workloads.ByName("164.gzip"), 600)
	cfg := DefaultConfig()
	cfg.Sim.CGRA.MemPorts = 0
	cache := NewCache()
	if _, err := Run(p, cfg, RunOptions{Store: cache}); !errors.Is(err, sim.ErrConfig) {
		t.Fatalf("Run with no memory ports: %v, want sim.ErrConfig", err)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("rejected run memoized %d artifacts", n)
	}
}
