package cache

import "fmt"

// Level identifies where in the hierarchy an access was satisfied.
type Level int

const (
	// L1 means the access hit in the core's private first-level cache.
	L1 Level = iota
	// L2 means the access missed L1 and hit the shared second-level cache.
	L2
	// Memory means the access missed both levels.
	Memory
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case Memory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// HierarchyConfig describes a two-level hierarchy: one private L1 per core
// over a single L2. SharedL2 selects the Core 2 Duo topology (all cores share
// one L2); with SharedL2 false every core gets a private L2 slice of the same
// geometry, modelling the paper's P4 Xeon SMP baseline.
type HierarchyConfig struct {
	Cores    int
	L1       Config
	L2       Config
	SharedL2 bool
}

func (c HierarchyConfig) validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cache: cores %d must be positive", c.Cores)
	}
	if err := c.L1.validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := c.L2.validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("cache: L1 line %dB != L2 line %dB", c.L1.LineBytes, c.L2.LineBytes)
	}
	return nil
}

// Hierarchy is a multi-core cache hierarchy: private L1s over either a
// shared L2 or private L2s.
type Hierarchy struct {
	cfg   HierarchyConfig
	l1    []*Cache
	l2    []*Cache // one entry if shared, else one per core
	l2for []*Cache // per-core L2 pointer (hot-path lookup without branching)
}

// NewHierarchy builds the hierarchy. It panics on an invalid configuration.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{cfg: cfg}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, New(cfg.L1))
	}
	if cfg.SharedL2 {
		h.l2 = []*Cache{New(cfg.L2)}
	} else {
		for i := 0; i < cfg.Cores; i++ {
			h.l2 = append(h.l2, New(cfg.L2))
		}
	}
	h.l2for = make([]*Cache, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		if cfg.SharedL2 {
			h.l2for[i] = h.l2[0]
		} else {
			h.l2for[i] = h.l2[i]
		}
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L2For returns the L2 cache serving the given core.
func (h *Hierarchy) L2For(core int) *Cache { return h.l2for[core] }

// L1For returns the private L1 of a core.
func (h *Hierarchy) L1For(core int) *Cache { return h.l1[core] }

// L2s returns the distinct L2 caches: one element when shared, one per core
// when private.
func (h *Hierarchy) L2s() []*Cache { return h.l2 }

// L2Index returns the index into L2s of the cache serving the given core.
func (h *Hierarchy) L2Index(core int) int {
	if h.cfg.SharedL2 {
		return 0
	}
	return core
}

// Access performs a memory access by core and returns the level that
// satisfied it. The model is non-inclusive: an L2 eviction does not
// invalidate L1 copies (private-address-space workloads never alias, so the
// simplification does not change observable behaviour).
func (h *Hierarchy) Access(core int, addr uint64) Level {
	if h.l1[core].Access(core, addr) {
		return L1
	}
	if h.l2for[core].Access(core, addr) {
		return L2
	}
	return Memory
}

// Reset returns every cache in the hierarchy to its just-constructed state
// (contents, recency, statistics) while keeping all allocations — the arena
// reuse path. No eviction events are reported; see Cache.Reset.
func (h *Hierarchy) Reset() {
	for _, c := range h.l1 {
		c.Reset()
	}
	for _, c := range h.l2 {
		c.Reset()
	}
}

// ResetStats zeroes counters on every cache in the hierarchy.
func (h *Hierarchy) ResetStats() {
	for _, c := range h.l1 {
		c.ResetStats()
	}
	for _, c := range h.l2 {
		c.ResetStats()
	}
}

// Scaled returns a copy of the hierarchy with every cache's capacity divided
// by div (associativity and line size preserved, so set counts shrink).
// Together with the workload package's region scaling it shrinks a machine
// while preserving the contention geometry.
func (c HierarchyConfig) Scaled(div int) HierarchyConfig {
	if div <= 0 {
		panic(fmt.Sprintf("cache: scale divisor %d must be positive", div))
	}
	clamp := func(cc Config) Config {
		cc.SizeBytes /= div
		if min := cc.LineBytes * cc.Ways; cc.SizeBytes < min {
			cc.SizeBytes = min // floor: one set
		}
		return cc
	}
	c.L1 = clamp(c.L1)
	c.L2 = clamp(c.L2)
	return c
}

// CoreDuoConfig returns the evaluation machine of §2.3.2/§4.2: a dual-core
// with 32KB 8-way private L1s and a 4MB 16-way shared L2, 64-byte lines.
func CoreDuoConfig() HierarchyConfig {
	return HierarchyConfig{
		Cores:    2,
		L1:       Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		L2:       Config{SizeBytes: 4 << 20, LineBytes: 64, Ways: 16},
		SharedL2: true,
	}
}

// XeonSMPConfig returns the §2.3.1 baseline: two processors with private 2MB
// 8-way L2s (no shared cache).
func XeonSMPConfig() HierarchyConfig {
	return HierarchyConfig{
		Cores:    2,
		L1:       Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 8},
		L2:       Config{SizeBytes: 2 << 20, LineBytes: 64, Ways: 8},
		SharedL2: false,
	}
}

// QuadCoreConfig returns a four-core shared-L2 machine for the hierarchical
// MIN-CUT extension experiments (§3.3.2 mentions quad-core in Fig 6a).
func QuadCoreConfig() HierarchyConfig {
	return HierarchyConfig{
		Cores:    4,
		L1:       Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		L2:       Config{SizeBytes: 4 << 20, LineBytes: 64, Ways: 16},
		SharedL2: true,
	}
}
