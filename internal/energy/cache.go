package energy

// Cache is a set-associative, write-allocate, LRU data-cache model. It is the
// mechanism behind the paper's array-traversal finding: row-major traversal
// of a two-dimensional array touches each 64-byte line 16 times (for 4-byte
// elements) while column-major traversal misses on almost every access.
//
// The implementation is the metering hot path's inner core, so its layout is
// chosen for the simulator's own cache behaviour, not for object-oriented
// tidiness: tags and LRU stamps live in two parallel slices (a way scan reads
// 8 consecutive tags from one line instead of striding over tag/stamp pairs),
// and the set index is a mask when the geometry allows it. None of this
// changes a single transition: the same lookups, stamp updates and evictions
// happen in the same order as the straightforward struct-of-pairs version.
type Cache struct {
	lineBits uint
	sets     int
	ways     int

	// setMask is sets-1 when sets is a power of two (every realistic
	// geometry, including the default 64-set L1D); pow2 selects between the
	// mask and the division. line&setMask == int(line)%sets for every
	// address the synthetic heap can produce, so the two paths are the same
	// function, not an approximation.
	setMask uint64
	pow2    bool

	tags    []uint64 // sets × ways; tag 0 = invalid (real tags offset by 1)
	stamps  []uint64 // LRU timestamps, parallel to tags
	lastWay []int32  // per-set way of the most recent hit/install
	clock   uint64

	hits, misses uint64
}

// CacheConfig describes a cache geometry.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line size, power of two
	Ways      int // associativity
}

// DefaultCacheConfig is a 32 KiB, 8-way, 64-byte-line L1D — the geometry of
// the paper's i5-3317U testbed.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8}
}

// NewCache builds a cache with the given geometry. It panics on a geometry
// that is not a power-of-two line size or does not divide evenly into sets,
// since that is a programming error in the caller.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("energy: cache line size must be a positive power of two")
	}
	if cfg.Ways <= 0 {
		panic("energy: cache associativity must be positive")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	if sets <= 0 || sets*cfg.Ways*cfg.LineBytes != cfg.SizeBytes {
		panic("energy: cache size must be sets × ways × line")
	}
	bits := uint(0)
	for 1<<bits < cfg.LineBytes {
		bits++
	}
	return &Cache{
		lineBits: bits,
		sets:     sets,
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		pow2:     sets&(sets-1) == 0,
		tags:     make([]uint64, sets*cfg.Ways),
		stamps:   make([]uint64, sets*cfg.Ways),
		lastWay:  make([]int32, sets),
	}
}

// Access simulates a load or store of size bytes at addr and reports how many
// lines it touched and how many of those missed. An access spanning a line
// boundary touches every line it covers.
func (c *Cache) Access(addr uint64, size int) (lines, missed int) {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.lineBits
	last := (addr + uint64(size) - 1) >> c.lineBits
	if first == last { // common case: the access fits in one line
		if c.touch(first) {
			return 1, 0
		}
		return 1, 1
	}
	for line := first; ; line++ {
		lines++
		if !c.touch(line) {
			missed++
		}
		if line == last {
			break
		}
	}
	return lines, missed
}

// setOf maps a line to its set index: a mask for power-of-two set counts,
// the modulus otherwise. Both compute int(line) % c.sets for the
// non-negative line numbers the synthetic heap produces.
func (c *Cache) setOf(line uint64) int {
	if c.pow2 {
		return int(line & c.setMask)
	}
	return int(line) % c.sets
}

// touch looks up one line, installing it on a miss, and reports a hit.
//
// The per-set lastWay memo short-circuits the way scan when a set's most
// recently touched line is touched again — the dominant pattern for
// sequential traversals, where 16 consecutive 4-byte accesses share a line.
// The memo is self-validating (the tag is re-checked), and the fast path
// performs exactly the state transitions the full scan would on that hit, so
// hit/miss counts, stamps and evictions are bit-identical with or without it.
func (c *Cache) touch(line uint64) bool {
	// Tag 0 marks an invalid way; offset real tags by 1 so line 0 is valid.
	tag := line + 1
	set := c.setOf(line)
	base := set * c.ways
	c.clock++
	if i := base + int(c.lastWay[set]); c.tags[i] == tag {
		c.stamps[i] = c.clock
		c.hits++
		return true
	}
	// Subslice the set's ways once so the scan below runs with the bounds
	// checks hoisted out of the loop; the traversal rows spend a quarter of
	// their VM time here on all-miss scans.
	tags := c.tags[base : base+c.ways]
	stamps := c.stamps[base : base+c.ways : base+c.ways]
	if c.ways == 8 {
		// Fixed-size views of the default 8-way geometry: constant trip
		// count and no bounds checks, same scan in the same order.
		t8 := (*[8]uint64)(tags)
		s8 := (*[8]uint64)(stamps)
		victim, oldest := 0, s8[0]
		for w := 0; w < 8; w++ {
			if t8[w] == tag {
				s8[w] = c.clock
				c.hits++
				c.lastWay[set] = int32(w)
				return true
			}
			if s8[w] < oldest {
				victim, oldest = w, s8[w]
			}
		}
		t8[victim] = tag
		s8[victim] = c.clock
		c.misses++
		c.lastWay[set] = int32(victim)
		return false
	}
	victim, oldest := 0, stamps[0]
	for w, t := range tags {
		if t == tag {
			stamps[w] = c.clock
			c.lastWay[set] = int32(w)
			c.hits++
			return true
		}
		if stamps[w] < oldest {
			victim, oldest = w, stamps[w]
		}
	}
	tags[victim] = tag
	stamps[victim] = c.clock
	c.misses++
	c.lastWay[set] = int32(victim)
	return false
}

// Hits reports the number of line hits since construction or Reset.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses reports the number of line misses since construction or Reset.
func (c *Cache) Misses() uint64 { return c.misses }

// Reset invalidates every line and zeroes the counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.stamps[i] = 0
	}
	for i := range c.lastWay {
		c.lastWay[i] = 0
	}
	c.clock = 0
	c.hits = 0
	c.misses = 0
}
