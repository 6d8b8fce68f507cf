package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"needle/internal/corpus"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/program"
)

// corpusConfig is the config the corpus runs under: the defaults plus a
// step bound, since a checked-in .nir program run with zero arguments may
// never exit.
func corpusConfig() Config {
	cfg := DefaultConfig()
	cfg.Sim.MaxSteps = 1 << 22
	return cfg
}

// liveHeap returns the live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// cacheBytes returns the summed estimates of the entries c keeps.
func cacheBytes(c *Cache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// sizedEntry is the resident-size estimate of an entry under key holding a
// value the estimate does not look into, such as the tests' ints.
func sizedEntry(key string) int64 { return residentBytes(key, nil, nil) }

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	one := sizedEntry("k1")
	c := newCache(3 * one)
	val := func(v int) func() (any, error) { return func() (any, error) { return v, nil } }
	for i := 1; i <= 3; i++ {
		c.do("select", fmt.Sprintf("k%d", i), val(i))
	}
	if _, _, hit := c.do("select", "k1", val(0)); !hit { // k1 is now the most recent
		t.Fatal("k1 evicted within the budget")
	}
	c.do("select", "k4", val(4)) // evicts k2, the coldest
	for key, want := range map[string]bool{"k1": true, "k2": false, "k3": true, "k4": true} {
		c.mu.Lock()
		_, ok := c.entries[key]
		c.mu.Unlock()
		if ok != want {
			t.Errorf("%s resident = %v, want %v", key, ok, want)
		}
	}
	if st := c.Stats()["select"]; st.MemEvictions != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want one memory eviction and no disk evictions", st)
	}
	if got := cacheBytes(c); got != 3*one {
		t.Errorf("kept %d bytes, want %d", got, 3*one)
	}
	if v, _, hit := c.do("select", "k2", val(22)); hit || v.(int) != 22 {
		t.Errorf("evicted k2: v=%v hit=%v, want a recomputed 22", v, hit)
	}
}

func TestCacheDropsEntryLargerThanBudget(t *testing.T) {
	c := newCache(sizedEntry("small"))
	c.do("frame", "small", func() (any, error) { return 1, nil })
	calls := 0
	for i := 0; i < 2; i++ {
		v, err, hit := c.do("frame", "too-large-to-keep", func() (any, error) { calls++; return 2, nil })
		if v.(int) != 2 || err != nil || hit {
			t.Fatalf("run %d: v=%v err=%v hit=%v", i, v, err, hit)
		}
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2: the oversized entry must not be kept", calls)
	}
	if c.Len() != 1 || cacheBytes(c) != sizedEntry("small") {
		t.Errorf("Len()=%d bytes=%d: the oversized entry displaced the small one", c.Len(), cacheBytes(c))
	}
	if st := c.Stats()["frame"]; st.MemEvictions != 2 {
		t.Errorf("MemEvictions = %d, want 2", st.MemEvictions)
	}
}

func TestCacheNeverEvictsInFlight(t *testing.T) {
	c := newCache(sizedEntry("k0"))
	release := make(chan struct{})
	done := make(chan any)
	go func() {
		v, _, _ := c.do("profile", "slow", func() (any, error) { <-release; return "slow", nil })
		done <- v
	}()
	for c.Len() == 0 {
		runtime.Gosched()
	}
	for i := 0; i < 8; i++ { // each completion evicts the one before it
		c.do("profile", fmt.Sprintf("k%d", i), func() (any, error) { return i, nil })
	}
	c.mu.Lock()
	_, ok := c.entries["slow"]
	c.mu.Unlock()
	if !ok {
		t.Fatal("an in-flight entry was evicted")
	}
	close(release)
	if v := <-done; v != "slow" {
		t.Fatalf("in-flight run got %v", v)
	}
}

// TestCacheSingleflightUnderEviction: identical concurrent requests still
// compute once while other keys complete and evict around them.
func TestCacheSingleflightUnderEviction(t *testing.T) {
	const waiters = 16
	c := newCache(4 * sizedEntry("churn-000"))
	var calls atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, _ := c.do("select", "shared", func() (any, error) {
				calls.Add(1)
				<-release
				return "artifact", nil
			})
			if err != nil || v != "artifact" {
				t.Errorf("do: v=%v err=%v", v, err)
			}
		}()
	}
	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; i < 200; i++ {
				c.do("frame", fmt.Sprintf("churn-%d%02d", g, i%50), func() (any, error) { return i, nil })
			}
		}()
	}
	for c.Stats()["select"].Hits < waiters-1 { // every waiter has joined the flight
		runtime.Gosched()
	}
	churn.Wait()
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("shared compute ran %d times, want 1", n)
	}
	if st := c.Stats()["frame"]; st.MemEvictions == 0 {
		t.Fatalf("no evictions ran alongside the flight: %+v", st)
	}
	if cacheBytes(c) > c.budget {
		t.Fatalf("kept %d bytes, over the budget %d", cacheBytes(c), c.budget)
	}
}

// TestEvictionLeavesOutputsUnchanged runs the corpus through a cache whose
// one-byte budget keeps no entry, so every stage of every run computes and
// is evicted, and requires each run's outputs to match a fresh cache's.
func TestEvictionLeavesOutputsUnchanged(t *testing.T) {
	cfg := corpusConfig()
	outcome := func(p *program.Program, store Store) string {
		a, err := Run(p, cfg, RunOptions{Store: store})
		if err != nil {
			return "error: " + err.Error()
		}
		return artifactSignature(a)
	}
	c := newCache(1)
	for _, p := range corpus.Programs(t) {
		want := outcome(p, NewCache())
		if got := outcome(p, c); got != want {
			t.Fatalf("%s differs from a fresh cache's run:\n%s\nwant:\n%s", p.Name, got, want)
		}
	}
	for _, stage := range []string{"inline", "profile", "select", "frame"} {
		if st := c.Stats()[stage]; st.MemEvictions != st.Misses || st.Hits != 0 {
			t.Errorf("%s: %+v, want every miss evicted and no hits", stage, st)
		}
	}
	if c.Len() != 0 || cacheBytes(c) != 0 {
		t.Errorf("Len()=%d bytes=%d, want an empty cache", c.Len(), cacheBytes(c))
	}
}

// TestRetainedHeapStaysBounded drives 2,000 distinct programs of the
// service benchmark's shape through one default Cache. Kept, their
// artifacts would retain several times the budget; the live heap the cache
// holds afterwards must stay within the budget plus a quarter for estimate
// error.
func TestRetainedHeapStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("drives 2,000 pipeline runs")
	}
	shape := irgen.Config{MaxDepth: 3, MaxStmts: 8, MaxLoopTrip: 24, MemWords: 1024}
	c := NewCache()
	base := liveHeap()
	for seed := int64(1); seed <= 2000; seed++ {
		g := irgen.Generate(seed, shape)
		p, err := program.New(g.F.Name, program.SuiteUser, g.F, []uint64{interp.IBits(seed)}, g.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(p, corpusConfig(), RunOptions{Store: c}); err != nil && !errors.Is(err, interp.ErrStepLimit) {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	retained := liveHeap() - base
	evictions := int64(0)
	for _, st := range c.Stats() {
		evictions += st.MemEvictions
	}
	t.Logf("retained %.1f MiB for %d entries (estimate %.1f MiB) after %d evictions",
		float64(retained)/(1<<20), c.Len(), float64(cacheBytes(c))/(1<<20), evictions)
	if evictions == 0 {
		t.Fatal("nothing was evicted: the run did not exceed the budget")
	}
	if limit := int64(CacheBudget) * 5 / 4; retained > limit {
		t.Fatalf("retained heap %d bytes exceeds budget plus a quarter (%d)", retained, limit)
	}
	runtime.KeepAlive(c)
}

// TestResidentBytesTrackHeap holds each stage's resident-size estimate,
// summed over the corpus, within 2× of the live heap the stage's artifacts
// add when they complete. The stages run stage by stage across the whole
// corpus, a collection between each. Every program is rebuilt first, so the
// inline artifact is charged for the function and memory image it keeps
// alive, and the profile artifact for every analysis of the hot function
// its trace's manager holds at the end of a run (those the select and frame
// stages add included). A last row decodes every profile from a DiskStore
// hit, whose trace pins the read buffer, and holds that estimate within 2×
// too.
func TestResidentBytesTrackHeap(t *testing.T) {
	cfg := corpusConfig()
	progs := corpus.Programs(t)
	h := liveHeap()
	runs := make([]*Artifacts, 0, len(progs))
	for _, p := range progs {
		q, err := program.New(p.Name, p.Suite, ir.CloneFunction(p.F),
			append([]uint64(nil), p.Args...), append([]uint64(nil), p.Memory...))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, &Artifacts{Program: q, Config: cfg})
	}
	for i := range stages {
		st := &stages[i]
		if !st.cacheable || (st.skip != nil && st.skip(cfg)) {
			continue
		}
		estimated := int64(0)
		kept := runs[:0]
		for _, a := range runs {
			out, err := st.run(a, nil)
			if err != nil {
				continue // the run stops here; its upstream artifacts stay counted
			}
			st.apply(a, out)
			if st.Name == "profile" {
				am, f := a.HotFunc()
				am.PostDominators(f)
				am.ControlDependents(f)
				am.Liveness(f)
			}
			estimated += residentBytes("", out, nil) - entryBytes
			kept = append(kept, a)
		}
		runs = kept
		next := liveHeap()
		checkRow(t, st.Name, next-h, estimated)
		h = next
	}

	// A profile decoded from a DiskStore hit, whose packed cycles alias the
	// store's read buffer: each program's inline artifact is rebuilt first,
	// as a warm run recomputes it, and the analyses the downstream stages
	// add are computed as above.
	disk, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	inline, prof := &stages[0], &stages[2]
	warm := make([]*Artifacts, len(runs))
	for i, a := range runs {
		data, err := prof.encode(a, a.Profile)
		if err != nil {
			t.Fatal(err)
		}
		disk.save(prof.Name, fmt.Sprint(i), data)
		warm[i] = &Artifacts{Program: a.Program, Config: cfg}
		out, err := inline.run(warm[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		inline.apply(warm[i], out)
	}
	h = liveHeap()
	estimated := int64(0)
	for i, a := range warm {
		data, ok := disk.load(prof.Name, fmt.Sprint(i))
		if !ok {
			t.Fatalf("%s: stored profile not found", a.Program.Name)
		}
		out, err := prof.decode(a, data)
		if err != nil {
			t.Fatal(err)
		}
		prof.apply(a, out)
		am, f := a.HotFunc()
		am.PostDominators(f)
		am.ControlDependents(f)
		am.Liveness(f)
		estimated += residentBytes("", out, nil) - entryBytes
	}
	checkRow(t, "profile (decoded)", liveHeap()-h, estimated)
	runtime.KeepAlive(progs)
	runtime.KeepAlive(runs)
	runtime.KeepAlive(warm)
}

// checkRow logs one row of TestResidentBytesTrackHeap and fails it unless
// the estimate is within 2× of the measured heap.
func checkRow(t *testing.T, name string, measured, estimated int64) {
	t.Helper()
	t.Logf("%-17s measured %9d estimated %9d (%.2f×)", name, measured, estimated, float64(estimated)/float64(measured))
	if estimated > 2*measured || measured > 2*estimated {
		t.Errorf("%s: estimate %d is not within 2× of the measured %d", name, estimated, measured)
	}
}
