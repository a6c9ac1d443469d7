// Package cache implements the set-associative cache models that stand in
// for the paper's Simics g-cache module: single caches with LRU replacement
// and a two-level hierarchy (per-core private L1s over a shared L2) matching
// the Intel Core 2 Duo and P4 Xeon configurations used in the evaluation.
//
// The shared L2 publishes fill and eviction events to the Bloom-filter
// signature unit (internal/bloom) so it can shadow the cache's contents
// exactly the way the paper's hardware does. The unit is attached through
// SetUnit — a concrete *bloom.Unit pointer, so the per-fill/per-evict calls
// on the simulation's hottest path are direct (devirtualized). The generic
// Listener hook remains for tests and custom instrumentation.
package cache

import (
	"fmt"
	"math/bits"

	"symbiosched/internal/bloom"
)

// Replacement selects the victim-choice policy of a cache.
type Replacement int

const (
	// LRU evicts the least-recently-used line (the default; the paper's
	// machines and the g-cache model it emulates are LRU).
	LRU Replacement = iota
	// FIFO evicts the oldest-filled line regardless of reuse.
	FIFO
	// Random evicts a pseudo-random way (deterministic xorshift sequence).
	Random
)

// String names the policy.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// Config describes one cache's geometry.
type Config struct {
	SizeBytes int // total capacity in bytes
	LineBytes int // line size in bytes (power of two)
	Ways      int // associativity; 1 = direct mapped
	// Replace selects the replacement policy (zero value: LRU). The
	// signature scheme never modifies replacement — one of its selling
	// points over the cache-partitioning related work (§6) — so every
	// policy works with the same filters.
	Replace Replacement
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Lines returns the number of cache frames.
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

// LineShift returns log2(LineBytes).
func (c Config) LineShift() uint { return uint(bits.TrailingZeros(uint(c.LineBytes))) }

func (c Config) validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d must be a positive power of two", c.LineBytes)
	}
	if c.Ways <= 0 || c.Ways > 16 {
		return fmt.Errorf("cache: ways %d must be 1 to 16 (a set's recency order is one 64-bit word of 4-bit way indices)", c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible into %d-byte lines × %d ways", c.SizeBytes, c.LineBytes, c.Ways)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", s)
	}
	return nil
}

// Listener observes fills and evictions of a cache. Set and way identify the
// frame; lineAddr is the line-granular address (offset bits stripped).
type Listener interface {
	OnFill(core int, lineAddr uint64, set, way int)
	OnEvict(lineAddr uint64, set, way int)
}

// Stats accumulates access counts for one cache.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// MissRate returns Misses/Accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a single set-associative cache with a configurable replacement
// policy (true LRU by default).
//
// Hot-path layout: frames are stored structure-of-arrays. tags holds
// lineAddr+1 per frame (0 = invalid) so the hit scan touches a single dense
// uint64 array and needs no separate valid bit.
//
// Recency is position-encoded: order holds one uint64 per set whose 4-bit
// nibbles list way indices from MRU (nibble 0) to LRU (nibble ways-1), which
// caps associativity at 16 (the paper's machines use at most 16). A hit
// promotes its way's nibble to the front with a few shifts; the victim is
// read straight out of the LRU nibble — no timestamp array, no per-miss
// minimum scan. A fill promotes too, so under FIFO, where hits do not, the
// LRU nibble is the oldest fill. Ways fill in index order while a set has
// invalid ones ("first invalid way wins"), which keeps the valid ways a
// prefix of the row, so the hit scan can stop at the first invalid tag.
//
// Global counters are derived: Access only updates the per-core Stats row
// plus one eviction counter, and Stats() sums the rows on demand — two fewer
// memory increments on every access.
type Cache struct {
	cfg       Config
	sets      int
	setMask   uint64
	lineShift uint
	ways      int
	tags      []uint64 // sets × ways, row-major by set; lineAddr+1, 0 = invalid
	valid     []uint16 // per-set count of valid ways (always a prefix of the row)
	order     []uint64 // per-set MRU→LRU nibble stack
	orderInit uint64   // initial stack: victims pop in way order 0,1,2,…
	evictions uint64
	rng       uint64      // xorshift state for Random replacement
	unit      *bloom.Unit // concrete fast-path observer (production)
	listener  Listener    // generic observer (tests/instrumentation)
	perCore   []Stats     // indexed by core; grown on demand
}

// rngSeed is the initial xorshift state for Random replacement; Reset
// restores it so a reused cache replays the same victim sequence as a fresh
// one.
const rngSeed = 0x9e3779b97f4a7c15

// New constructs a cache. It panics on an invalid geometry (machine
// descriptions are programmer-supplied, not user input).
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:       cfg,
		sets:      cfg.Sets(),
		setMask:   uint64(cfg.Sets() - 1),
		lineShift: cfg.LineShift(),
		ways:      cfg.Ways,
		tags:      make([]uint64, cfg.Sets()*cfg.Ways),
		valid:     make([]uint16, cfg.Sets()),
		order:     make([]uint64, cfg.Sets()),
		rng:       rngSeed,
	}
	// Nibble i holds way ways-1-i: the LRU nibble starts at way 0, so an
	// untouched set's victims appear in index order.
	for i := 0; i < cfg.Ways; i++ {
		c.orderInit |= uint64(cfg.Ways-1-i) << (4 * uint(i))
	}
	for s := range c.order {
		c.order[s] = c.orderInit
	}
	return c
}

// SetListener attaches a generic fill/evict observer. Production code
// attaches the signature unit through SetUnit instead, which avoids the
// interface dispatch on every event; when both are set the unit wins.
func (c *Cache) SetListener(l Listener) { c.listener = l }

// SetUnit attaches the Bloom-filter signature unit through a concrete
// pointer. The per-event calls are direct method calls — the cache hot path
// pays no interface dispatch for signature maintenance.
func (c *Cache) SetUnit(u *bloom.Unit) { c.unit = u }

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated counters, derived by summing the per-core
// rows (the hot path maintains only those plus the eviction count; the
// access count is Hits+Misses by construction and is materialised here).
func (c *Cache) Stats() Stats {
	s := Stats{Evictions: c.evictions}
	for i := range c.perCore {
		s.Hits += c.perCore[i].Hits
		s.Misses += c.perCore[i].Misses
	}
	s.Accesses = s.Hits + s.Misses
	return s
}

// CoreStats returns the per-core counters (zero Stats for unseen cores).
func (c *Cache) CoreStats(core int) Stats {
	if core < len(c.perCore) {
		s := c.perCore[core]
		s.Accesses = s.Hits + s.Misses
		return s
	}
	return Stats{}
}

// LineAddr converts a byte address to the line-granular address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// setOf returns the set index for a line address.
func (c *Cache) setOf(lineAddr uint64) int { return int(lineAddr & c.setMask) }

// growPerCore extends the per-core stats slice to cover core with a single
// allocation (the previous version re-walked and appended one element at a
// time). Growth is amortized-doubling: cores typically arrive in ascending
// order, and sizing to exactly core+1 would copy the whole table once per
// new core — O(n²) over n cores. Out of line so the Access fast path stays
// small enough to inline the bounds check.
func (c *Cache) growPerCore(core int) {
	n := core + 1
	if d := 2 * len(c.perCore); d > n {
		n = d
	}
	grown := make([]Stats, n)
	copy(grown, c.perCore)
	c.perCore = grown
}

// Access performs a load or store of addr on behalf of core. It returns true
// on a hit. On a miss the line is filled, evicting the policy's victim if
// the set is full; fills and evictions are reported to the signature unit
// (or generic listener).
//
// The hit path is allocation-free and does no victim bookkeeping: it scans
// the set's tag row (stopping at the first invalid tag — valid ways are
// always a prefix) and, for LRU, promotes the hit way. All miss work lives
// in fillMiss.
func (c *Cache) Access(core int, addr uint64) bool {
	if core >= len(c.perCore) {
		c.growPerCore(core)
	}
	if c.AccessFast(core, addr) {
		c.perCore[core].Hits++
		return true
	}
	c.perCore[core].Misses++
	return false
}

// AccessFast is Access without the per-access statistics bookkeeping: cache
// state transitions (hit scan, LRU promotion, fills, evictions, unit
// events) are identical, but no hit/miss counter is touched. Batch drivers
// (the engine's inner loops) keep those counts in registers and credit them
// once per batch through AddCoreStats, which removes two read-modify-writes
// and a bounds check from every simulated memory access. All other callers
// should use Access.
func (c *Cache) AccessFast(core int, addr uint64) bool {
	lineAddr := addr >> c.lineShift
	tag := lineAddr + 1
	set := int(lineAddr & c.setMask)
	base := set * c.ways
	if c.cfg.Replace == LRU {
		// MRU-first probe: tag positions are static in the nibble scheme
		// (only the order word moves), so the most recently used way is one
		// load away — and an MRU hit needs no reordering. Re-referenced
		// lines are the common case on the L1, so this skips the scan far
		// more often than the extra compare costs. An empty or cold slot
		// holds tag 0, which can never match (tags are lineAddr+1 > 0).
		o := c.order[set]
		if c.tags[base+int(o&0xF)] == tag {
			return true
		}
		// Valid ways are a prefix of the row (fills consume ways in index
		// order), so the scan is bounded by the valid count and needs no
		// per-way invalid test. A hit here is never the MRU way (probed
		// above), so it always promotes.
		row := c.tags[base : base+int(c.valid[set])]
		for w := range row {
			if row[w] == tag {
				c.order[set] = promote(o, w)
				return true
			}
		}
		c.fillMiss(core, lineAddr, set, base)
		return false
	}
	// FIFO and Random: a hit changes nothing.
	row := c.tags[base : base+int(c.valid[set])]
	for w := range row {
		if row[w] == tag {
			return true
		}
	}
	c.fillMiss(core, lineAddr, set, base)
	return false
}

// AddCoreStats credits a batch of hit/miss counts to core's statistics row,
// pairing with AccessFast. Growing the row here (not per access) keeps the
// fast path free of the length check.
func (c *Cache) AddCoreStats(core int, hits, misses uint64) {
	if core >= len(c.perCore) {
		c.growPerCore(core)
	}
	c.perCore[core].Hits += hits
	c.perCore[core].Misses += misses
}

// promote moves way w's nibble to the MRU position (nibble 0) of an order
// word, shifting the nibbles in front of it up by one. The search for w's
// nibble is branchless: XORing w into every nibble turns the target into the
// word's first zero nibble, located with the carry-propagation trick.
func promote(o uint64, w int) uint64 {
	x := o ^ (uint64(w) * 0x1111111111111111)
	// Lowest set bit of m marks the first zero nibble of x (the standard
	// haszero trick, exact for the least significant occurrence).
	m := (x - 0x1111111111111111) & ^x & 0x8888888888888888
	p := uint(bits.TrailingZeros64(m)) &^ 3 // bit offset of the nibble, 4-aligned
	keep := o &^ (uint64(1)<<(p+4) - 1)     // nibbles above the target, unchanged
	shifted := (o & (uint64(1)<<p - 1)) << 4
	return keep | shifted | uint64(w)
}

// fillMiss handles the miss path: victim selection, eviction notification,
// and the fill. The victim is the first invalid way if any; in a full set
// it is the least recently used way (LRU), the oldest fill (FIFO) or a
// deterministic xorshift-selected way (Random — the RNG advances only when
// no invalid way exists).
func (c *Cache) fillMiss(core int, lineAddr uint64, set, base int) {
	var victim int
	if nv := int(c.valid[set]); nv < c.ways {
		// Set not full: the next unused way (ways fill in index order).
		victim = nv
		c.valid[set] = uint16(nv + 1)
	} else {
		o := c.order[set]
		victim = int(o >> (4 * uint(c.ways-1)) & 0xF)
		if c.cfg.Replace == Random {
			// xorshift64: deterministic pseudo-random way selection.
			c.rng ^= c.rng << 13
			c.rng ^= c.rng >> 7
			c.rng ^= c.rng << 17
			victim = int(c.rng % uint64(c.ways))
		}
		old := c.tags[base+victim] - 1
		c.evictions++
		if c.unit != nil {
			c.unit.OnEvict(old, set, victim)
		} else if c.listener != nil {
			c.listener.OnEvict(old, set, victim)
		}
	}
	c.tags[base+victim] = lineAddr + 1
	c.order[set] = promote(c.order[set], victim)
	if c.unit != nil {
		c.unit.OnFill(core, lineAddr, set, victim)
	} else if c.listener != nil {
		c.listener.OnFill(core, lineAddr, set, victim)
	}
}

// Contains reports whether the line holding addr is resident (no LRU or
// stats side effects). Intended for tests and footprint probes.
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := c.LineAddr(addr)
	tag := lineAddr + 1
	base := c.setOf(lineAddr) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// ResidentLines returns the number of valid frames: the cache's true
// footprint, used as ground truth when validating occupancy estimates.
func (c *Cache) ResidentLines() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// Flush invalidates every frame, reporting evictions to the unit/listener.
// The recency stacks are reset alongside, so a flushed set refills ways in
// index order exactly like a fresh cache (preserving the valid-prefix
// invariant the hit scan relies on).
func (c *Cache) Flush() {
	for i, t := range c.tags {
		if t == 0 {
			continue
		}
		c.evictions++
		if c.unit != nil {
			c.unit.OnEvict(t-1, i/c.ways, i%c.ways)
		} else if c.listener != nil {
			c.listener.OnEvict(t-1, i/c.ways, i%c.ways)
		}
		c.tags[i] = 0
	}
	for s := range c.valid {
		c.valid[s] = 0
	}
	for s := range c.order {
		c.order[s] = c.orderInit
	}
}

// ResetStats zeroes the counters without disturbing cache contents. The
// per-core slice keeps its length, so per-core accounting resumes without
// re-growing after a reset.
func (c *Cache) ResetStats() {
	c.evictions = 0
	for i := range c.perCore {
		c.perCore[i] = Stats{}
	}
}

// Reset returns the cache to its just-constructed state while keeping every
// allocation: tags invalidated, recency stacks re-initialised,
// statistics and the replacement RNG reset. Unlike Flush, no eviction events
// are reported — a reset models powering up a fresh machine, not running the
// invalidation protocol — so an attached unit or listener sees nothing.
//
// The post-Reset cache is bit-for-bit equivalent to New(cfg): simulation
// arenas rely on this to reuse one cache across runs without perturbing
// determinism. Any new mutable field added to Cache must be reset here.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.valid)
	for s := range c.order {
		c.order[s] = c.orderInit
	}
	c.evictions = 0
	c.rng = rngSeed
	for i := range c.perCore {
		c.perCore[i] = Stats{}
	}
}
