package mem

import "testing"

func TestHitAfterMiss(t *testing.T) {
	c := New(Config{})
	lat1 := c.Access(100)
	lat2 := c.Access(100)
	if lat1 != 2+20 {
		t.Fatalf("cold miss latency = %d, want 22", lat1)
	}
	if lat2 != 2 {
		t.Fatalf("hit latency = %d, want 2", lat2)
	}
	if c.L1Hits != 1 || c.L1Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestSpatialLocalityWithinLine(t *testing.T) {
	c := New(Config{})
	c.Access(0)
	for a := int64(1); a < 8; a++ { // same 8-word line
		if lat := c.Access(a); lat != 2 {
			t.Fatalf("addr %d latency = %d, want hit", a, lat)
		}
	}
	if lat := c.Access(8); lat == 2 {
		t.Fatal("next line should miss")
	}
}

func TestLRUEviction(t *testing.T) {
	// Tiny cache: 4 lines of 1 word, 2 ways -> 2 sets.
	c := New(Config{L1Words: 4, L1Ways: 2, L1LineWords: 1})
	c.Access(0) // set 0
	c.Access(2) // set 0
	c.Access(0) // refresh 0
	c.Access(4) // set 0: evicts 2 (LRU)
	if lat := c.Access(0); lat != 2 {
		t.Fatalf("0 should still hit, got %d", lat)
	}
	if lat := c.Access(2); lat == 2 {
		t.Fatal("2 should have been evicted")
	}
}

func TestUncoreAccessBypassesL1(t *testing.T) {
	c := New(Config{})
	if got := c.UncoreAccess(123); got != 20 {
		t.Fatalf("uncore latency = %d, want 20", got)
	}
	// Uncore accesses must not touch L1 stats.
	if c.Accesses != 0 {
		t.Fatal("uncore access polluted L1 stats")
	}
}

func TestL2CapacitySpillsToMemory(t *testing.T) {
	c := New(Config{L2Words: 1000})
	if lat := c.Access(5000); lat != 2+200 {
		t.Fatalf("beyond-L2 miss latency = %d, want 202", lat)
	}
	if lat := c.UncoreAccess(5000); lat != 200 {
		t.Fatalf("beyond-L2 uncore latency = %d, want 200", lat)
	}
}

func TestHitRateAndReset(t *testing.T) {
	c := New(Config{})
	c.Access(0)
	c.Access(0)
	c.Access(0)
	if hr := c.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate = %v, want 2/3", hr)
	}
	c.Reset()
	if c.Accesses != 0 || c.HitRate() != 0 {
		t.Fatal("reset failed")
	}
	if lat := c.Access(0); lat == 2 {
		t.Fatal("contents must be cleared by Reset")
	}
}

func TestNegativeAddressDoesNotPanic(t *testing.T) {
	c := New(Config{})
	_ = c.Access(-17)
}

// TestNewAllocatesOneArena: the sets are windows of one arena of lines, so
// a new cache costs the same few allocations whatever its set count.
func TestNewAllocatesOneArena(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { New(Config{}) }); n > 3 {
		t.Errorf("New allocates %.0f times, want at most 3 (cache, set table, line arena)", n)
	}
	c := New(Config{})
	for i := range c.sets {
		if len(c.sets[i]) != cap(c.sets[i]) {
			t.Fatalf("set %d has capacity %d past its %d ways", i, cap(c.sets[i]), len(c.sets[i]))
		}
	}
}
