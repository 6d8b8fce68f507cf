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

// TestNewAllocatesOneArena: every set's ways are one stretch of a single
// arena of lines, so a new cache costs two allocations whatever its set
// count, and Reset costs none.
func TestNewAllocatesOneArena(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { New(Config{}) }); n > 2 {
		t.Errorf("New allocates %.0f times, want at most 2 (cache, line arena)", n)
	}
	c := New(Config{})
	if want := c.nSets * c.cfg.L1Ways; len(c.lines) != want || c.nSets != 8192/8/4 {
		t.Fatalf("%d sets in %d lines, want 256 sets in %d", c.nSets, len(c.lines), want)
	}
	if n := testing.AllocsPerRun(10, c.Reset); n != 0 {
		t.Errorf("Reset allocates %.0f times, want 0", n)
	}
}

// TestResetMatchesNew: a used cache, once reset, answers an access stream
// with the latencies and stats of a new one, on the default geometry and
// on one whose sets are found by divide and modulo.
func TestResetMatchesNew(t *testing.T) {
	for _, cfg := range []Config{{}, {L1Words: 96, L1Ways: 3, L1LineWords: 4, L2Words: 700}} {
		stream := func(c *Cache, seed int64) []int64 {
			out := make([]int64, 0, 4000)
			x := seed
			for range 4000 {
				x = x*6364136223846793005 + 1442695040888963407
				out = append(out, c.Access(x>>54))
			}
			return out
		}
		used := New(cfg)
		stream(used, 1)
		used.Reset()
		fresh := New(cfg)
		got, want := stream(used, 2), stream(fresh, 2)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: access %d took %d cycles after Reset, %d on a new cache", cfg, i, got[i], want[i])
			}
		}
		if used.Stats != fresh.Stats {
			t.Fatalf("%+v: stats %+v after Reset, %+v on a new cache", cfg, used.Stats, fresh.Stats)
		}
	}
}
