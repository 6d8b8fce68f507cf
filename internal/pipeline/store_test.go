package pipeline

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"needle/internal/program"
	"needle/internal/workloads"
)

// testWorkload returns a small, fast program for store tests (470.lbm at
// the testConfig problem size).
func testWorkload(t *testing.T) *program.Program {
	t.Helper()
	w := workloads.ByName("470.lbm")
	if w == nil {
		t.Fatal("workload 470.lbm not registered")
	}
	p, err := w.Program(testConfig().N)
	if err != nil {
		t.Fatalf("program: %v", err)
	}
	return p
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.N = 400
	return cfg
}

// artifactSignature summarizes the observable outputs of a run for equality
// comparison across cache tiers.
func artifactSignature(a *Artifacts) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "f=%s blocks=%d regs=%d\n", a.Inline.F.Name, len(a.Inline.F.Blocks), a.Inline.F.NumRegs())
	tr := a.Profile.Trace
	fmt.Fprintf(&sb, "cycles=%d energy=%.6f occ=%d paths=%d tw=%d mix=%+v mem=%+v\n",
		tr.BaselineCycles, tr.BaselineEnergyPJ, len(tr.Occ), len(tr.Profile.Paths), tr.Profile.TotalWeight, tr.Mix, tr.CacheStats)
	for _, p := range tr.Profile.Paths {
		fmt.Fprintf(&sb, "path id=%d freq=%d ops=%d w=%d br=%d mem=%d blocks=%d\n",
			p.ID, p.Freq, p.Ops, p.Weight, p.Branches, p.MemOps, len(p.Blocks))
	}
	fmt.Fprintf(&sb, "cf=%+v braids=%d\n", a.Select.CFStats, len(a.Select.Braids))
	for _, br := range a.Select.Braids {
		fmt.Fprintf(&sb, "braid paths=%d blocks=%d guards=%d ifs=%d entry=%d exit=%d\n",
			len(br.Paths), len(br.Blocks), br.Guards, br.IFs, br.Entry.Index, br.Exit.Index)
	}
	if fr := a.Frame.HotBraidFrame; fr != nil {
		fmt.Fprintf(&sb, "frame ops=%d cp=%d guards=%d selects=%d cancelled=%d stores=%d undo=%d hoisted=%d livein=%v liveout=%v carried=%v unroll=%d opts=%+v\n",
			fr.NumOps(), fr.CriticalPath(), fr.Guards, fr.Selects, fr.Cancelled, fr.Stores, fr.UndoOps,
			fr.HoistedMemOps, fr.LiveIn, fr.LiveOut, fr.Carried, fr.Unroll, fr.BuildOptions())
		for i, op := range fr.Ops {
			fmt.Fprintf(&sb, "op %d %s deps=%v g=%v s=%v\n", i, op.Instr.Op, op.Deps, op.Guard, op.Select)
		}
	}
	if a.Frame.FrameErr != nil {
		fmt.Fprintf(&sb, "frameerr=%q\n", a.Frame.FrameErr.Error())
	}
	// The addresses of the artifacts the target results point into (the
	// chosen braid) differ from run to run.
	fmt.Fprintf(&sb, "target %s\n", hexAddr.ReplaceAllString(fmt.Sprintf("%+v", *a.Target), "0x?"))
	return sb.String()
}

var hexAddr = regexp.MustCompile(`0x[0-9a-f]+`)

// TestDiskStoreWarmStartIdentical is the heart of the persistent-store
// contract: a second store opened on the same directory (a fresh process's
// view: empty memory tier) serves every persisted stage (profile, select)
// from disk, recomputes inline and frame around them, and the run's
// observable outputs are identical to the cold run's.
func TestDiskStoreWarmStartIdentical(t *testing.T) {
	dir := t.TempDir()
	w, cfg := testWorkload(t), testConfig()

	cold, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := Run(w, cfg, RunOptions{Store: cold})
	if err != nil {
		t.Fatal(err)
	}
	if n := cold.DiskLen(); n != 2 {
		t.Fatalf("cold run persisted %d artifacts, want 2", n)
	}

	warm, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Run(w, cfg, RunOptions{Store: warm})
	if err != nil {
		t.Fatal(err)
	}
	var diskHits int64
	for _, cs := range warm.Stats() {
		diskHits += cs.DiskHits
	}
	if diskHits != 2 {
		t.Fatalf("warm run had %d disk hits, want 2 (stats %+v)", diskHits, warm.Stats())
	}

	s1, s2 := artifactSignature(a1), artifactSignature(a2)
	if s1 != s2 {
		t.Errorf("warm-start run diverged from cold run:\n--- cold ---\n%s\n--- warm ---\n%s", s1, s2)
	}

	// And both must match a storeless fresh run.
	a3, err := Run(w, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s3 := artifactSignature(a3); s3 != s1 {
		t.Errorf("fresh run diverged from stored runs:\n--- fresh ---\n%s\n--- stored ---\n%s", s3, s1)
	}
}

// TestDiskStoreCorruptEntriesAreMisses flips bytes in every persisted
// artifact and expects the next run to silently recompute — same outputs,
// zero disk hits.
func TestDiskStoreCorruptEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	w, cfg := testWorkload(t), testConfig()

	cold, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := Run(w, cfg, RunOptions{Store: cold})
	if err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), artifactExt) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted != 2 {
		t.Fatalf("corrupted %d artifacts, want 2", corrupted)
	}

	warm, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Run(w, cfg, RunOptions{Store: warm})
	if err != nil {
		t.Fatalf("run over corrupt store must recompute, got %v", err)
	}
	for stage, cs := range warm.Stats() {
		if cs.DiskHits != 0 {
			t.Errorf("stage %s had %d disk hits off corrupt artifacts", stage, cs.DiskHits)
		}
	}
	if s1, s2 := artifactSignature(a1), artifactSignature(a2); s1 != s2 {
		t.Errorf("recomputed run diverged:\n%s\nvs\n%s", s1, s2)
	}
}

// TestDiskStoreTruncatedHeaderIsMiss covers the torn-write shape separately
// from payload corruption.
func TestDiskStoreTruncatedHeaderIsMiss(t *testing.T) {
	dir := t.TempDir()
	w, cfg := testWorkload(t), testConfig()
	cold, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, cfg, RunOptions{Store: cold}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), artifactExt) {
			if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("needle-art"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, cfg, RunOptions{Store: warm}); err != nil {
		t.Fatalf("truncated artifacts must be misses, got %v", err)
	}
	for stage, cs := range warm.Stats() {
		if cs.DiskHits != 0 {
			t.Errorf("stage %s hit a truncated artifact", stage)
		}
	}
}

// TestDiskStoreEviction caps the store at 0 MB (everything over budget) and
// expects artifacts to be evicted after each write.
func TestDiskStoreEviction(t *testing.T) {
	dir := t.TempDir()
	w, cfg := testWorkload(t), testConfig()
	s, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.maxBytes = 1 // effectively: keep nothing
	if _, err := Run(w, cfg, RunOptions{Store: s}); err != nil {
		t.Fatal(err)
	}
	if n := s.DiskLen(); n != 0 {
		t.Errorf("store kept %d artifacts under a 1-byte cap", n)
	}
	var evictions int64
	for _, cs := range s.Stats() {
		evictions += cs.Evictions
	}
	if evictions == 0 {
		t.Error("no evictions recorded")
	}
	// The run itself must be unaffected (memory tier served it), and a
	// subsequent store finds nothing — all misses, no failures.
	warm, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm.maxBytes = 1
	if _, err := Run(w, cfg, RunOptions{Store: warm}); err != nil {
		t.Fatal(err)
	}
}

// TestDiskStoreClearsStagesWithoutCodec: opening a directory removes the
// files of every stage without a codec (inline, frame and target), which
// earlier builds wrote and nothing reads, and keeps the persisted ones.
func TestDiskStoreClearsStagesWithoutCodec(t *testing.T) {
	dir := t.TempDir()
	keep := "profile-00000000000000000000000000000000" + artifactExt
	seed := []string{keep}
	for i := range stages {
		if stages[i].encode == nil {
			seed = append(seed, stages[i].Name+"-00000000000000000000000000000000"+artifactExt)
		}
	}
	if len(seed) != 4 {
		t.Fatalf("seeded %v, want a file for each of inline, frame and target besides profile", seed)
	}
	for _, name := range seed {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewDiskStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	if want := []string{keep}; !slices.Equal(left, want) {
		t.Fatalf("after opening: %v, want %v", left, want)
	}
}

// TestDiskStoreStatsShape pins the merged Stats view: memory hits/misses
// from the front tier, DiskHits from the persistent tier.
func TestDiskStoreStatsShape(t *testing.T) {
	dir := t.TempDir()
	w, cfg := testWorkload(t), testConfig()
	s, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, cfg, RunOptions{Store: s}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, cfg, RunOptions{Store: s}); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	for _, stage := range []string{"inline", "profile", "select", "frame"} {
		cs := stats[stage]
		if cs.Misses != 1 || cs.Hits != 1 {
			t.Errorf("stage %s: %+v, want 1 miss (cold) + 1 memory hit (second run)", stage, cs)
		}
		if cs.DiskHits != 0 {
			t.Errorf("stage %s: %d disk hits within one process, want 0", stage, cs.DiskHits)
		}
	}
	if _, ok := stats["target"]; ok {
		t.Error("target stage must never touch the store")
	}
}

// TestCacheDoesNotCacheCancellation is the regression test for the
// ctx-error poisoning bug: a cancelled stage must not memoize its
// cancellation for later runs.
func TestCacheDoesNotCacheCancellation(t *testing.T) {
	for _, ctxErr := range []error{context.Canceled, context.DeadlineExceeded} {
		c := NewCache()
		calls := 0
		wrapped := fmt.Errorf("pipeline: capturing x: %w", ctxErr)
		if _, err, _ := c.do("profile", "k", func() (any, error) { calls++; return nil, wrapped }); !errors.Is(err, ctxErr) {
			t.Fatalf("want %v, got %v", ctxErr, err)
		}
		v, err, _ := c.do("profile", "k", func() (any, error) { calls++; return "artifact", nil })
		if err != nil || v != "artifact" {
			t.Fatalf("%v poisoned the key: v=%v err=%v", ctxErr, v, err)
		}
		if calls != 2 {
			t.Fatalf("compute ran %d times, want 2 (cancellation must not memoize)", calls)
		}
	}
	// Deterministic failures still memoize (the documented contract).
	c := NewCache()
	calls := 0
	boom := errors.New("boom")
	c.do("profile", "k", func() (any, error) { calls++; return nil, boom })
	if _, err, hit := c.do("profile", "k", func() (any, error) { calls++; return nil, nil }); !errors.Is(err, boom) || !hit {
		t.Fatalf("deterministic error not cached: err=%v hit=%v", err, hit)
	}
	if calls != 1 {
		t.Fatalf("deterministic failure recomputed (%d calls)", calls)
	}
}

// TestCacheDoesNotCachePanics: a computation that panics leaves no entry
// behind. Its panic reaches the computing caller, a run waiting on the same
// key gets an error instead of a nil artifact, and the next run computes.
func TestCacheDoesNotCachePanics(t *testing.T) {
	c := NewCache()
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		c.do("profile", "k", func() (any, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waited := make(chan error)
	go func() {
		v, err, _ := c.do("profile", "k", func() (any, error) { return "never", nil })
		if v != nil {
			err = fmt.Errorf("waiter got artifact %v", v)
		}
		waited <- err
	}()
	for c.Stats()["profile"].Hits == 0 { // the waiter has joined the entry
		runtime.Gosched()
	}
	close(release)
	if p := <-panicked; p != "boom" {
		t.Fatalf("the computing caller recovered %v, want the panic", p)
	}
	if err := <-waited; !errors.Is(err, errPanicked) {
		t.Fatalf("waiter: %v, want errPanicked", err)
	}
	v, err, hit := c.do("profile", "k", func() (any, error) { return "artifact", nil })
	if err != nil || v != "artifact" || hit {
		t.Fatalf("after the panic: v=%v err=%v hit=%v, want a fresh computation", v, err, hit)
	}
}

// TestStagesDeclareCodecs pins which stages persist: a stage declares a
// codec only when decoding its artifact is cheaper than recomputing it,
// which holds for opt, profile and select. Inline and frame are cheap
// passes over the IR and stay in the memory tier; target is never cached.
func TestStagesDeclareCodecs(t *testing.T) {
	var persisted []string
	for i := range stages {
		st := &stages[i]
		if (st.encode == nil) != (st.decode == nil) {
			t.Errorf("stage %q declares half a codec", st.Name)
		}
		if st.encode == nil {
			continue
		}
		if !st.cacheable {
			t.Errorf("uncacheable stage %q declares a codec it can never use", st.Name)
		}
		persisted = append(persisted, st.Name)
	}
	if want := []string{"opt", "profile", "select"}; !slices.Equal(persisted, want) {
		t.Errorf("persisted stages %v, want %v", persisted, want)
	}
}

// TestDiskStoreMixedTiers decodes an artifact against a mix of tiers:
// delete only the select artifact from disk, warm-start, and expect the
// profile to decode against the recomputed inline function, select to be
// recomputed against the decoded profile, and the frame built on those
// braids, with identical results.
func TestDiskStoreMixedTiers(t *testing.T) {
	dir := t.TempDir()
	w, cfg := testWorkload(t), testConfig()
	cold, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := Run(w, cfg, RunOptions{Store: cold})
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	removed := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "select-") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	if removed != 1 {
		t.Fatalf("removed %d select artifacts, want 1", removed)
	}
	warm, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Run(w, cfg, RunOptions{Store: warm})
	if err != nil {
		t.Fatal(err)
	}
	stats := warm.Stats()
	if stats["profile"].DiskHits != 1 || stats["select"].DiskHits != 0 {
		t.Fatalf("unexpected tier mix: %+v", stats)
	}
	if s1, s2 := artifactSignature(a1), artifactSignature(a2); s1 != s2 {
		t.Errorf("mixed-tier run diverged:\n%s\nvs\n%s", s1, s2)
	}
	if n := warm.DiskLen(); n != 2 {
		t.Errorf("the recomputed select artifact was not persisted again: %d artifacts on disk", n)
	}
}

// TestDiskStoreTruncatedOccurrencesAreMisses rewrites the profile artifact
// with its run stream one run short, then its cycle stream one entry
// short, under a valid header and CRC: the decode must fail, and the warm
// run must recompute the profile with identical results instead of
// replaying a short trace.
func TestDiskStoreTruncatedOccurrencesAreMisses(t *testing.T) {
	for _, stream := range []string{"run", "cycle"} {
		t.Run(stream, func(t *testing.T) {
			dir := t.TempDir()
			w, cfg := testWorkload(t), testConfig()
			cold, err := NewDiskStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			a1, err := Run(w, cfg, RunOptions{Store: cold})
			if err != nil {
				t.Fatal(err)
			}
			d, err := a1.Profile.Trace.Data()
			if err != nil {
				t.Fatal(err)
			}
			if stream == "run" {
				pd := *d.Profile
				pd.Runs = pd.Runs[:len(pd.Runs)-1]
				d.Profile = &pd
			} else {
				// Drop the last cycle's varint: its final byte and any
				// continuation bytes before it.
				n := len(d.Cycles) - 1
				for n > 0 && d.Cycles[n-1] >= 0x80 {
					n--
				}
				d.Cycles = d.Cycles[:n]
			}
			payload := d.Append(nil)
			entries, _ := os.ReadDir(dir)
			rewritten := 0
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), "profile-") {
					raw := append([]byte(header("profile", payload)), payload...)
					if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
						t.Fatal(err)
					}
					rewritten++
				}
			}
			if rewritten != 1 {
				t.Fatalf("rewrote %d profile artifacts, want 1", rewritten)
			}
			warm, err := NewDiskStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			a2, err := Run(w, cfg, RunOptions{Store: warm})
			if err != nil {
				t.Fatal(err)
			}
			if hits := warm.Stats()["profile"].DiskHits; hits != 0 {
				t.Fatalf("profile served from a truncated artifact (%d disk hits)", hits)
			}
			if s1, s2 := artifactSignature(a1), artifactSignature(a2); s1 != s2 {
				t.Errorf("recomputed run diverged:\n%s\nvs\n%s", s1, s2)
			}
		})
	}
}
