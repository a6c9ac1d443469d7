package bloom

import (
	"fmt"

	"symbiosched/internal/bitvec"
)

// Geometry describes the cache the signature unit is attached to, in the
// units the unit cares about: sets and ways (frames = sets × ways).
type Geometry struct {
	Sets int // number of cache sets (power of two)
	Ways int // associativity
}

// Lines returns the number of cache frames.
func (g Geometry) Lines() int { return g.Sets * g.Ways }

// Config parameterises a signature Unit.
type Config struct {
	Geometry    Geometry
	Cores       int
	Hash        HashKind
	CounterBits int // width of the shared counter array entries; paper uses 3
	// SampleRate is the set-sampling divisor from §5.4: only sets with
	// index ≡ 0 (mod SampleRate) are monitored, and the filter has
	// Lines/SampleRate entries. 1 disables sampling; 4 is the paper's 25%.
	SampleRate int
	// EntriesFactor multiplies the filter size beyond the paper's
	// one-entry-per-sampled-line (0 or 1 keeps the paper's sizing; must be
	// a power of two). At the paper's sizing the filter load factor is 1.0
	// whenever the cache is full, so the Core Filters saturate and the RBV
	// of anything co-located with another cache-filling application is
	// capped at the filter's headroom (a few percent). A factor of 2 halves
	// the load factor and restores the occupancy signal for cache-filling
	// pairs at twice the (still small) storage cost.
	EntriesFactor int
}

func (c Config) validate() error {
	g := c.Geometry
	if g.Sets <= 0 || g.Sets&(g.Sets-1) != 0 {
		return fmt.Errorf("bloom: sets %d must be a positive power of two", g.Sets)
	}
	if g.Ways <= 0 {
		return fmt.Errorf("bloom: ways %d must be positive", g.Ways)
	}
	if c.Cores <= 0 {
		return fmt.Errorf("bloom: cores %d must be positive", c.Cores)
	}
	if c.CounterBits <= 0 || c.CounterBits > 32 {
		return fmt.Errorf("bloom: counter bits %d out of range (0,32]", c.CounterBits)
	}
	if c.SampleRate <= 0 || c.SampleRate&(c.SampleRate-1) != 0 {
		return fmt.Errorf("bloom: sample rate %d must be a positive power of two", c.SampleRate)
	}
	if g.Sets%c.SampleRate != 0 {
		return fmt.Errorf("bloom: sample rate %d does not divide sets %d", c.SampleRate, g.Sets)
	}
	if g.Lines()/c.SampleRate < 2 {
		return fmt.Errorf("bloom: filter would have %d entries", g.Lines()/c.SampleRate)
	}
	if f := c.EntriesFactor; f != 0 && (f < 0 || f&(f-1) != 0) {
		return fmt.Errorf("bloom: entries factor %d must be a power of two", f)
	}
	return nil
}

// entries returns the filter size for the configuration.
func (c Config) entries() int {
	e := c.Geometry.Lines() / c.SampleRate
	if c.EntriesFactor > 1 {
		e *= c.EntriesFactor
	}
	return e
}

// DefaultConfig returns the paper's configuration for the given cache
// geometry and core count: XOR hash, 3-bit counters, 25% sampling.
func DefaultConfig(g Geometry, cores int) Config {
	return Config{Geometry: g, Cores: cores, Hash: HashXOR, CounterBits: 3, SampleRate: 4}
}

// Signature is the per-process (or per-VM) record the OS keeps as part of
// the context: the paper's "(2+N)-entry data structure" of §3.2 plus the raw
// RBV so software policies can recompute metrics if desired.
//
// Signatures captured through a Unit's lazy path (the default) defer the
// Symbiosis/Overlap popcounts to the first read: the capture snapshots the
// RBV and takes references on the per-core Core Filter versions (see
// cfVersion), and Materialize computes the vectors on demand against exactly
// the capture-time filter contents. Manually constructed Signatures have no
// backing unit and behave as plain values — Materialize is a no-op on them.
type Signature struct {
	LastCore  int   // core the application last ran on
	Occupancy int   // popcount(RBV): cache footprint estimate
	Symbiosis []int // popcount(RBV ⊕ CF[j]) per core j; high = low interference
	// Overlap[j] is popcount(RBV ∧ CF[j]): the number of filter positions
	// the application's footprint shares with core j's current contents —
	// the occupancy-weighted interference measure of §3.3.3, bounded by
	// min(|RBV|, |CF_j|) so it is inherently weighted by both sides'
	// occupancies (see DESIGN.md note 10).
	Overlap []int
	RBV     *bitvec.Vector

	// Lazy-capture state. unit is the capturing Unit (nil for released
	// records and hand-built values). cfRefs[j] is the Core Filter version
	// referenced at capture; valid[j] reports whether
	// Symbiosis[j]/Overlap[j] already holds the value for the current
	// RBV/version pair (memoized across switches whose RBV and filter
	// versions did not change). mat is the all-valid fast path flag.
	unit   *Unit
	cfRefs []*cfVersion
	valid  []bool
	mat    bool
}

// Materialize computes any symbiosis/overlap entries not yet filled in,
// against the Core Filter contents at capture time (frozen copies when a
// filter has mutated since). It is idempotent and cheap when already
// materialized; signatures without a backing unit are returned unchanged.
// The receiver is returned for chaining.
func (s *Signature) Materialize() *Signature {
	if s.mat || s.unit == nil {
		return s
	}
	u := s.unit
	for j := range s.Symbiosis {
		if s.valid[j] {
			continue
		}
		cfj := s.cfRefs[j].vec
		if cfj == nil {
			// Version still live: the filter has not content-mutated since
			// capture, so its current contents ARE the capture-time contents.
			cfj = u.cf[j]
		}
		if j == s.LastCore {
			// Own core: measure against the filter with the RBV masked out
			// (see ContextSwitch doc). scratch is free here — captures and
			// materializations never interleave within one unit operation.
			u.scratchFor().AndNot(cfj, s.RBV)
			s.Symbiosis[j], s.Overlap[j] = s.RBV.XorAndCount(u.scratch)
		} else {
			s.Symbiosis[j], s.Overlap[j] = s.RBV.XorAndCount(cfj)
		}
		s.valid[j] = true
	}
	s.mat = true
	return s
}

// releaseRefs drops the signature's Core Filter version references and
// detaches it from its unit. Computed Symbiosis/Overlap values survive (they
// are plain ints), but nothing further can be materialized.
func (s *Signature) releaseRefs() {
	u := s.unit
	if u == nil {
		return
	}
	for j, v := range s.cfRefs {
		if v != nil {
			u.dropRef(v)
			s.cfRefs[j] = nil
		}
	}
	for j := range s.valid {
		s.valid[j] = false
	}
	s.mat = false
	s.unit = nil
}

// Release materializes nothing, drops the signature's filter-version
// references and returns the record to its unit's pool for reuse by a future
// capture. Call it when the context owning the signature is destroyed (the
// engine does on Machine.Reset). Releasing a detached signature is a no-op;
// the caller must not use the signature afterwards.
func (s *Signature) Release() {
	if s == nil || s.unit == nil {
		return
	}
	u := s.unit
	s.releaseRefs()
	u.sigPool = append(u.sigPool, s)
}

// ensureLazy sizes the lazy bookkeeping slices for cores entries.
func (s *Signature) ensureLazy(cores int) {
	if len(s.cfRefs) != cores {
		s.cfRefs = make([]*cfVersion, cores)
	}
	if len(s.valid) != cores {
		s.valid = make([]bool, cores)
	}
}

// cfVersion identifies one epoch of a Core Filter's contents. While a
// version is live its vec is nil and the contents are the unit's cf[j]
// itself; the first content mutation (a 0→1 fill or a counter-zero evict
// clear) while any signature references the version freezes it — the
// pre-mutation contents are copied into vec and a fresh live version opens.
// Versions are compared by pointer: reference counting guarantees a
// referenced version is never recycled, so pointer equality is epoch
// equality (the memoization key for cross-switch reuse).
type cfVersion struct {
	refs int
	vec  *bitvec.Vector // nil while live; frozen pre-mutation copy afterwards
}

// Unit is the split counting Bloom filter of §3.1: one shared counter array
// plus a Core Filter bitvector per core, each with an associated Last Filter
// snapshot. The cache calls OnFill for every L2 fill (miss) and OnEvict for
// every replacement; the OS/hypervisor calls ContextSwitch when it
// deschedules an application from a core.
type Unit struct {
	cfg     Config
	hasher  Hasher // nil in presence mode
	entries int
	ctrMax  uint32

	// Hot-path precomputation: SampleRate is a validated power of two, so
	// the sampled-set test is a mask instead of a modulo, and the common XOR
	// hash is held concretely so OnFill/OnEvict skip interface dispatch.
	sampleMask int
	xorHash    xorFold
	useXorHash bool

	counters []uint32
	cf       []*bitvec.Vector // core filters, one per core
	lf       []*bitvec.Vector // last filters (snapshots at context switch)
	scratch  *bitvec.Vector   // reusable own-core mask buffer (capture/materialize)

	// Copy-on-write Core Filter versioning for lazy capture: live[j] is the
	// current (mutating) version of cf[j]. Freed versions, their frozen
	// vectors and released Signature records are pooled so the steady state
	// allocates nothing.
	live    []*cfVersion
	verPool []*cfVersion
	vecPool []*bitvec.Vector
	sigPool []*Signature

	// Stats
	Fills       uint64 // sampled fills observed
	Evicts      uint64 // sampled evictions observed
	Skipped     uint64 // events outside the sampled sets
	Saturations uint64 // increments lost to counter saturation
	Underflows  uint64 // decrements of a zero counter
	Freezes     uint64 // Core Filter versions frozen by copy-on-write
}

// NewUnit constructs a signature unit. It panics on an invalid Config (the
// configuration is programmer-supplied machine description, not user input).
func NewUnit(cfg Config) *Unit {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	entries := cfg.entries()
	u := &Unit{
		cfg:        cfg,
		entries:    entries,
		ctrMax:     uint32(1)<<uint(cfg.CounterBits) - 1,
		sampleMask: cfg.SampleRate - 1,
		counters:   make([]uint32, entries),
		cf:         make([]*bitvec.Vector, cfg.Cores),
		lf:         make([]*bitvec.Vector, cfg.Cores),
	}
	if cfg.Hash != HashPresence {
		u.hasher = NewHasher(cfg.Hash, entries)
		if xf, ok := u.hasher.(xorFold); ok {
			u.xorHash, u.useXorHash = xf, true
		}
	}
	for i := range u.cf {
		u.cf[i] = bitvec.New(entries)
		u.lf[i] = bitvec.New(entries)
	}
	u.live = make([]*cfVersion, cfg.Cores)
	for i := range u.live {
		u.live[i] = &cfVersion{}
	}
	return u
}

// scratchFor returns the unit's reusable scratch vector, allocating it on
// first use.
func (u *Unit) scratchFor() *bitvec.Vector {
	if u.scratch == nil {
		u.scratch = bitvec.New(u.entries)
	}
	return u.scratch
}

// freeze closes core's live Core Filter version before a content mutation:
// the pre-mutation contents are copied into the version (so referencing
// signatures keep materializing against capture-time state) and a fresh live
// version opens. Callers must freeze BEFORE applying the mutation and only
// when the live version is referenced.
func (u *Unit) freeze(core int) {
	v := u.live[core]
	if n := len(u.vecPool); n > 0 {
		v.vec = u.vecPool[n-1]
		u.vecPool = u.vecPool[:n-1]
		v.vec.CopyFrom(u.cf[core])
	} else {
		v.vec = u.cf[core].Clone()
	}
	if n := len(u.verPool); n > 0 {
		u.live[core] = u.verPool[n-1]
		u.verPool = u.verPool[:n-1]
	} else {
		u.live[core] = &cfVersion{}
	}
	u.Freezes++
}

// dropRef releases one reference on a version; fully released frozen
// versions are recycled (a live version stays owned by the unit).
func (u *Unit) dropRef(v *cfVersion) {
	v.refs--
	if v.refs == 0 && v.vec != nil {
		u.vecPool = append(u.vecPool, v.vec)
		v.vec = nil
		u.verPool = append(u.verPool, v)
	}
}

// takeSignature returns a pooled or fresh Signature shaped for this unit.
func (u *Unit) takeSignature() *Signature {
	if n := len(u.sigPool); n > 0 {
		s := u.sigPool[n-1]
		u.sigPool = u.sigPool[:n-1]
		return s
	}
	return &Signature{
		Symbiosis: make([]int, u.cfg.Cores),
		Overlap:   make([]int, u.cfg.Cores),
		RBV:       bitvec.New(u.entries),
		cfRefs:    make([]*cfVersion, u.cfg.Cores),
		valid:     make([]bool, u.cfg.Cores),
	}
}

// Entries returns the filter size.
func (u *Unit) Entries() int { return u.entries }

// sampled reports whether events in this set are monitored. SampleRate is a
// power of two, so the test is a mask rather than a modulo.
func (u *Unit) sampled(set int) bool { return set&u.sampleMask == 0 }

// index maps an event to its filter index, or -1 if the event falls outside
// the sampled sets. In presence mode the index is the cache frame itself
// (compacted over the sampled sets); otherwise it is the address hash. The
// common XOR hash is dispatched concretely (no interface call).
func (u *Unit) index(lineAddr uint64, set, way int) int {
	if set&u.sampleMask != 0 {
		return -1
	}
	if u.useXorHash {
		return u.xorHash.Index(lineAddr)
	}
	if u.hasher == nil {
		return (set/u.cfg.SampleRate)*u.cfg.Geometry.Ways + way
	}
	return u.hasher.Index(lineAddr)
}

// OnFill records an L2 fill (miss) of lineAddr into frame (set,way) caused
// by core. The shared counter is incremented and the core's CF bit set.
func (u *Unit) OnFill(core int, lineAddr uint64, set, way int) {
	idx := u.index(lineAddr, set, way)
	if idx < 0 {
		u.Skipped++
		return
	}
	u.Fills++
	if u.counters[idx] == u.ctrMax {
		u.Saturations++
	} else {
		u.counters[idx]++
	}
	// Content mutations (0→1 only; re-setting a set bit changes nothing)
	// freeze the live Core Filter version when signatures reference it, so
	// lazy materialization still sees the capture-time contents.
	cf := u.cf[core]
	if !cf.Test(idx) {
		if u.live[core].refs > 0 {
			u.freeze(core)
		}
		cf.Set(idx)
	}
}

// OnEvict records the replacement of the line lineAddr held in frame
// (set,way). The shared counter is decremented; when it reaches zero the
// corresponding bit is cleared in every core filter, as in §3.1.
func (u *Unit) OnEvict(lineAddr uint64, set, way int) {
	idx := u.index(lineAddr, set, way)
	if idx < 0 {
		u.Skipped++
		return
	}
	u.Evicts++
	if u.counters[idx] == 0 {
		u.Underflows++
		return
	}
	u.counters[idx]--
	if u.counters[idx] == 0 {
		for j, cf := range u.cf {
			if cf.Test(idx) {
				if u.live[j].refs > 0 {
					u.freeze(j)
				}
				cf.Clear(idx)
			}
		}
	}
}

// ContextSwitch implements the §3.1 protocol for descheduling an application
// from core: it extracts the RBV (CF ∧ ¬LF), computes occupancy weight and
// per-core symbiosis, snapshots the CF into the LF for the next interval,
// and returns the signature the OS stores in the outgoing context.
//
// Reproduction note: for the application's own core, the symbiosis is
// computed against the Core Filter with the just-captured RBV masked out —
// a process must not be measured as interfering with its own footprint.
// Without the mask the self-XOR is structurally near zero (the RBV is a
// subset of the own-core CF), every process reads as maximally interfering
// with its current core, and the §3.3 graph algorithms freeze in whatever
// mapping they start from. See DESIGN.md.
func (u *Unit) ContextSwitch(core int) *Signature {
	return u.ContextSwitchInto(core, nil).Materialize()
}

// ContextSwitchInto is ContextSwitch reusing the buffers of a previously
// returned Signature: when reuse matches this unit's shape its RBV and
// metric slices are overwritten in place and reuse itself is returned,
// making the steady-state capture allocation-free (the OS reuses each
// context's signature record rather than allocating a new one per switch,
// exactly like real per-task kernel state). A nil or mismatched reuse falls
// back to the unit's signature pool. Callers must not pass a signature that
// other code still aliases — the engine passes the descheduled thread's own
// record, which is being replaced anyway.
//
// The capture is LAZY: only the RBV (one fused AndNot/compare/popcount
// pass) and N version references are taken here — O(filter words + N)
// instead of the eager O(N · filter words) — and the per-core
// Symbiosis/Overlap vectors are owed until Materialize (which the kernel
// snapshot calls). When the RBV, last core and every referenced filter
// version are unchanged since the previous capture into the same record,
// the previously materialized entries remain valid and the next Materialize
// is free — the cross-switch memoization that makes tight switch/monitor
// ratios cheap. The unit tests pin every materialized value against an
// eager oracle that computes the vectors at the switch, as the hardware
// description in §3.1 does.
func (u *Unit) ContextSwitchInto(core int, reuse *Signature) *Signature {
	cf := u.cf[core]
	sig := reuse
	if sig != nil && sig.unit != nil && sig.unit != u {
		// The thread migrated from another unit (multi-socket machines):
		// its references belong to the old unit's pools.
		sig.releaseRefs()
	}
	if sig == nil || sig.RBV == nil || sig.RBV.Len() != u.entries ||
		len(sig.Symbiosis) != u.cfg.Cores || len(sig.Overlap) != u.cfg.Cores {
		sig = u.takeSignature()
	}
	sig.ensureLazy(u.cfg.Cores)
	changed, pop := sig.RBV.AndNotCmp(cf, u.lf[core])
	same := !changed && sig.unit == u && core == sig.LastCore
	sig.Occupancy = pop
	sig.LastCore = core
	sig.unit = u
	if !same {
		// New RBV (or new record/core): every memoized entry is stale.
		for j := range sig.valid {
			sig.valid[j] = false
		}
		sig.mat = false
	}
	for j := 0; j < u.cfg.Cores; j++ {
		nv := u.live[j]
		nv.refs++
		if ov := sig.cfRefs[j]; ov != nil {
			if ov != nv && sig.valid[j] {
				// The filter moved to a new epoch: the memoized value was
				// computed against different contents.
				sig.valid[j] = false
				sig.mat = false
			}
			u.dropRef(ov)
		}
		sig.cfRefs[j] = nv
	}
	u.lf[core].CopyFrom(cf)
	return sig
}

// DiscardSwitch performs the §3.1 descheduling protocol when the OS is going
// to throw the captured signature away (a reshuffle interrupting a short
// partial quantum keeps the previous full-quantum record instead): the Last
// Filter snapshot — the only state transition ContextSwitch performs — still
// happens, but no RBV, popcounts or Signature are materialised.
func (u *Unit) DiscardSwitch(core int) {
	u.lf[core].CopyFrom(u.cf[core])
}

// OccupancyWeight returns popcount(CF[core]): the running footprint estimate
// for the core (Fig 5's "occupancy weight" series).
func (u *Unit) OccupancyWeight(core int) int { return u.cf[core].PopCount() }

// Reset clears all counters, filters and statistics. Outstanding lazy
// signatures stay materializable: any referenced live Core Filter version is
// frozen (zeroing a filter is a content mutation like any other) before the
// filters clear, so a signature captured before the reset still materializes
// to its pre-reset values.
func (u *Unit) Reset() {
	for i := range u.counters {
		u.counters[i] = 0
	}
	for i := range u.cf {
		if u.live[i].refs > 0 && u.cf[i].Any() {
			u.freeze(i)
		}
		u.cf[i].Reset()
		u.lf[i].Reset()
	}
	u.Fills, u.Evicts, u.Skipped, u.Saturations, u.Underflows, u.Freezes = 0, 0, 0, 0, 0, 0
}

// Overhead models the §5.4 hardware-cost accounting: the storage added by
// the counter array plus per-core CF and LF bitvectors, as a fraction of the
// cache's data+tag storage.
type Overhead struct {
	FilterBits int     // total signature storage in bits
	CacheBits  int     // cache data+tag storage in bits
	Fraction   float64 // FilterBits / CacheBits
}

// OverheadFor computes the hardware overhead of a configuration for a cache
// with the given line size in bytes and tag width in bits. With the paper's
// parameters (64-byte lines, dual core, 3-bit counters, no sampling) the
// per-line signature cost is counterBits + 2·cores bits; sampling divides
// the whole signature cost by the sample rate, which is how the paper
// arrives at ~2.13% for 25% sampling.
func OverheadFor(cfg Config, lineBytes, tagBits int) Overhead {
	lines := cfg.Geometry.Lines()
	entries := lines / cfg.SampleRate
	filterBits := entries * (cfg.CounterBits + 2*cfg.Cores)
	cacheBits := lines * (lineBytes*8 + tagBits)
	return Overhead{
		FilterBits: filterBits,
		CacheBits:  cacheBits,
		Fraction:   float64(filterBits) / float64(cacheBits),
	}
}
