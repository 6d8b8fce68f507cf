// Package mem models the memory hierarchy of Table V: a private L1 data
// cache in front of a shared NUCA L2. The uncore accelerator bypasses the
// host L1 and talks to the L2 directly, exactly as the paper's CGRA does.
// The model is a latency/energy model: it tracks hit/miss state for the L1
// and charges fixed latencies per level, which is all the evaluation needs.
package mem

import "math/bits"

// Config describes the hierarchy. Addresses are word (8-byte) indices.
type Config struct {
	L1Words     int   // total L1 capacity in words (64 KiB = 8192 words)
	L1Ways      int   // associativity
	L1LineWords int   // line size in words
	L1Latency   int64 // hit latency, cycles
	L2Latency   int64 // L2 hit latency, cycles (NUCA average)
	MemLatency  int64 // DRAM latency, cycles

	// L2Words bounds the L2 capacity; accesses beyond it go to memory.
	// Zero means "always hits in L2", the common configuration because the
	// paper's working sets fit in the LLC.
	L2Words int
}

// DefaultConfig returns the Table V hierarchy: 64K 4-way L1 with 2-cycle
// hits and a 20-cycle shared L2.
func DefaultConfig() Config {
	return Config{
		L1Words:     8192,
		L1Ways:      4,
		L1LineWords: 8,
		L1Latency:   2,
		L2Latency:   20,
		MemLatency:  200,
	}
}

// Stats accumulates access counts.
type Stats struct {
	Accesses int64
	L1Hits   int64
	L1Misses int64
}

// Cache is a set-associative L1 model with LRU replacement backed by a
// fixed-latency L2.
type Cache struct {
	cfg Config
	// lines holds every set's ways in one table: set s is
	// lines[s*L1Ways : (s+1)*L1Ways].
	lines []line
	nSets int
	// lineShift/setMask implement the line and set computation by shift and
	// mask when line size and set count are powers of two (the default
	// configuration); lineShift < 0 selects the general divide/modulo path.
	lineShift int
	setMask   int64
	Stats
}

type line struct {
	tag   int64
	valid bool
	lru   int64 // last-use tick
}

// WithDefaults returns cfg with every zero or negative field but L2Words
// replaced by its DefaultConfig entry: the configuration New models.
func (cfg Config) WithDefaults() Config {
	def := DefaultConfig()
	if cfg.L1Words <= 0 {
		cfg.L1Words = def.L1Words
	}
	if cfg.L1Ways <= 0 {
		cfg.L1Ways = def.L1Ways
	}
	if cfg.L1LineWords <= 0 {
		cfg.L1LineWords = def.L1LineWords
	}
	if cfg.L1Latency <= 0 {
		cfg.L1Latency = def.L1Latency
	}
	if cfg.L2Latency <= 0 {
		cfg.L2Latency = def.L2Latency
	}
	if cfg.MemLatency <= 0 {
		cfg.MemLatency = def.MemLatency
	}
	return cfg
}

// New creates a cache for cfg.WithDefaults().
func New(cfg Config) *Cache {
	cfg = cfg.WithDefaults()
	nSets := max(cfg.L1Words/cfg.L1LineWords/cfg.L1Ways, 1)
	c := &Cache{cfg: cfg, lines: make([]line, nSets*cfg.L1Ways), nSets: nSets, lineShift: -1}
	if isPow2(cfg.L1LineWords) && isPow2(nSets) {
		c.lineShift = bits.TrailingZeros(uint(cfg.L1LineWords))
		c.setMask = int64(nSets - 1)
	}
	return c
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Config returns the active configuration.
func (c *Cache) Config() Config { return c.cfg }

// Access simulates one L1 access to a word address and returns its latency.
// Writes allocate like reads (write-allocate, write-back; dirty eviction
// latency is folded into the miss penalty).
func (c *Cache) Access(addr int64) int64 {
	c.Accesses++
	var lineAddr int64
	var set int
	if c.lineShift >= 0 && addr >= 0 {
		// Shift/mask equals the divide/modulo below for non-negative
		// addresses when line size and set count are powers of two.
		lineAddr = addr >> uint(c.lineShift)
		set = int(lineAddr & c.setMask)
	} else {
		lineAddr = addr / int64(c.cfg.L1LineWords)
		set = int(lineAddr % int64(c.nSets))
		if set < 0 {
			set = -set
		}
	}
	n := c.cfg.L1Ways
	ways := c.lines[set*n : (set+1)*n]
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineAddr {
			c.L1Hits++
			ways[i].lru = c.Accesses
			return c.cfg.L1Latency
		}
	}
	// Miss: fill via L2 (or memory if the address is outside the modeled
	// L2 span), evicting LRU.
	c.L1Misses++
	victim := 0
	for i := 1; i < len(ways); i++ {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	ways[victim] = line{tag: lineAddr, valid: true, lru: c.Accesses}
	if c.cfg.L2Words > 0 && addr >= int64(c.cfg.L2Words) {
		return c.cfg.L1Latency + c.cfg.MemLatency
	}
	return c.cfg.L1Latency + c.cfg.L2Latency
}

// UncoreAccess returns the latency of an accelerator-side access, which
// bypasses the host L1 and pays the shared-L2 latency.
func (c *Cache) UncoreAccess(addr int64) int64 {
	if c.cfg.L2Words > 0 && addr >= int64(c.cfg.L2Words) {
		return c.cfg.MemLatency
	}
	return c.cfg.L2Latency
}

// HitRate returns the L1 hit rate over all accesses so far.
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.L1Hits) / float64(c.Accesses)
}

// Reset clears stats and contents.
func (c *Cache) Reset() {
	c.Stats = Stats{}
	clear(c.lines)
}
