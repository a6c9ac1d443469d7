package bloom

import (
	"fmt"
	"math/rand"
	"testing"
)

// refModel is a map-based model of the split counting Bloom filter of §3.1,
// written from DESIGN.md §1 and sharing no code with Unit except NewHasher:
// per filter index a saturating counter, per core the set of its Core Filter
// indices and the Last Filter snapshot taken at its last context switch.
type refModel struct {
	ways, sample int
	hash         Hasher // nil in presence mode
	max          uint32
	counters     map[int]uint32
	cf, lf       []map[int]bool

	saturations, underflows uint64
}

func newRefModel(cfg Config) *refModel {
	m := &refModel{
		ways:     cfg.Geometry.Ways,
		sample:   cfg.SampleRate,
		max:      1<<cfg.CounterBits - 1,
		counters: map[int]uint32{},
	}
	if cfg.Hash != HashPresence {
		m.hash = NewHasher(cfg.Hash, cfg.Geometry.Sets*cfg.Geometry.Ways/cfg.SampleRate)
	}
	for c := 0; c < cfg.Cores; c++ {
		m.cf = append(m.cf, map[int]bool{})
		m.lf = append(m.lf, map[int]bool{})
	}
	return m
}

// index returns the filter index of the line held in frame (set, way), and
// false when the set is not sampled. Presence filters index the sampled
// frames themselves.
func (m *refModel) index(addr uint64, set, way int) (int, bool) {
	if set%m.sample != 0 {
		return 0, false
	}
	if m.hash == nil {
		return set/m.sample*m.ways + way, true
	}
	return m.hash.Index(addr), true
}

func (m *refModel) fill(core int, addr uint64, set, way int) {
	i, ok := m.index(addr, set, way)
	if !ok {
		return
	}
	if m.counters[i] == m.max {
		m.saturations++
	} else {
		m.counters[i]++
	}
	m.cf[core][i] = true
}

func (m *refModel) evict(addr uint64, set, way int) {
	i, ok := m.index(addr, set, way)
	if !ok {
		return
	}
	if m.counters[i] == 0 {
		m.underflows++
		return
	}
	m.counters[i]--
	if m.counters[i] == 0 {
		for _, cf := range m.cf {
			delete(cf, i)
		}
	}
}

// refSig is the model's context record.
type refSig struct {
	core               int
	rbv                map[int]bool
	symbiosis, overlap []int
}

// contextSwitch returns the record of the application leaving core and
// snapshots the core's CF into its LF. Against its own core the RBV is
// measured with the RBV masked out of the CF, as ContextSwitch documents.
func (m *refModel) contextSwitch(core int) refSig {
	s := refSig{core: core, rbv: map[int]bool{}}
	for i := range m.cf[core] {
		if !m.lf[core][i] {
			s.rbv[i] = true
		}
	}
	for j, cf := range m.cf {
		other := cf
		if j == core {
			other = map[int]bool{}
			for i := range cf {
				if !s.rbv[i] {
					other[i] = true
				}
			}
		}
		and := 0
		for i := range s.rbv {
			if other[i] {
				and++
			}
		}
		// |A ⊕ B| = |A| + |B| − 2|A ∧ B|
		s.symbiosis = append(s.symbiosis, len(s.rbv)+len(other)-2*and)
		s.overlap = append(s.overlap, and)
	}
	m.lf[core] = map[int]bool{}
	for i := range m.cf[core] {
		m.lf[core][i] = true
	}
	return s
}

// lruCache is the residency model that drives the unit and the reference
// model alike: a set-associative cache with LRU replacement, reporting every
// fill and eviction, that remembers which core filled each resident line.
type lruCache struct {
	frames [][]frame
	clock  uint64
}

type frame struct {
	valid bool
	addr  uint64
	core  int
	used  uint64
}

func newLRUCache(sets, ways int) *lruCache {
	c := &lruCache{frames: make([][]frame, sets)}
	for s := range c.frames {
		c.frames[s] = make([]frame, ways)
	}
	return c
}

// access looks addr up on behalf of core. A miss evicts the set's LRU line
// (the first free way if there is one) and fills addr into its frame.
func (c *lruCache) access(core int, addr uint64, evict func(addr uint64, set, way int), fill func(core int, addr uint64, set, way int)) {
	c.clock++
	set := int(addr % uint64(len(c.frames)))
	fs := c.frames[set]
	victim := -1
	for w := range fs {
		if fs[w].valid && fs[w].addr == addr {
			fs[w].used = c.clock
			return
		}
		switch {
		case victim < 0:
			victim = w
		case !fs[victim].valid:
		case !fs[w].valid || fs[w].used < fs[victim].used:
			victim = w
		}
	}
	if fs[victim].valid {
		evict(fs[victim].addr, set, victim)
	}
	fs[victim] = frame{valid: true, addr: addr, core: core, used: c.clock}
	fill(core, addr, set, victim)
}

// TestUnitMatchesReferenceModel drives a Unit and refModel with the same
// fills and evictions from an LRU residency model (16 sets × 4 ways, more
// threads than cores, a context switch every few dozen accesses of a core)
// and compares, after every switch, the shared counters, every CF and LF
// bit, the saturation and underflow counts, and the outgoing record: RBV
// bits, occupancy, and per-core symbiosis and overlap. Half the records are
// materialized at the switch and half at the thread's next switch, after
// the filters have moved on. While no counter has saturated it also checks
// DESIGN.md §1 against the resident lines themselves: counter i equals the
// number of resident lines hashing to i, every resident line's filling core
// has its CF bit set, and no CF bit is set over a zero counter.
func TestUnitMatchesReferenceModel(t *testing.T) {
	const sets, ways = 16, 4
	seed := int64(0)
	for _, kind := range []HashKind{HashXOR, HashXORInvRev, HashModulo, HashPresence} {
		var saturations, underflows uint64 // over the kind's 1-bit runs
		for _, sample := range []int{1, 4} {
			for _, bits := range []int{1, 3} {
				for _, cores := range []int{2, 4} {
					cfg := Config{
						Geometry:    Geometry{Sets: sets, Ways: ways},
						Cores:       cores,
						Hash:        kind,
						CounterBits: bits,
						SampleRate:  sample,
					}
					seed++
					name := fmt.Sprintf("%v/sample%d/bits%d/cores%d", kind, sample, bits, cores)
					t.Run(name, func(t *testing.T) {
						u := runAgainstReferenceModel(t, cfg, seed)
						if bits == 1 {
							saturations += u.Saturations
							underflows += u.Underflows
						}
					})
				}
			}
		}
		// A presence filter has one counter per frame, so it never aliases.
		// Every address hash must reach the saturated-counter paths.
		if kind != HashPresence && (saturations == 0 || underflows == 0) {
			t.Errorf("%v: the 1-bit runs saw %d saturations and %d underflows; they must exercise both",
				kind, saturations, underflows)
		}
	}
}

// runAgainstReferenceModel runs one configuration and returns the unit.
func runAgainstReferenceModel(t *testing.T, cfg Config, seed int64) *Unit {
	u, m := NewUnit(cfg), newRefModel(cfg)
	c := newLRUCache(cfg.Geometry.Sets, cfg.Geometry.Ways)
	rng := rand.New(rand.NewSource(seed))
	evict := func(addr uint64, set, way int) {
		u.OnEvict(addr, set, way)
		m.evict(addr, set, way)
	}
	fill := func(core int, addr uint64, set, way int) {
		u.OnFill(core, addr, set, way)
		m.fill(core, addr, set, way)
	}

	// Each thread reuses a private working set of 6–40 lines; the ready
	// queue hands a descheduled thread to whichever core switches next, so
	// threads migrate and records are reused across cores.
	threads := cfg.Cores + 2
	span := make([]int, threads)
	for th := range span {
		span[th] = 6 + rng.Intn(35)
	}
	running := make([]int, cfg.Cores)
	ready := []int{}
	for th := 0; th < threads; th++ {
		if th < cfg.Cores {
			running[th] = th
		} else {
			ready = append(ready, th)
		}
	}
	quantum := make([]int, cfg.Cores)
	for core := range quantum {
		quantum[core] = 20 + rng.Intn(41)
	}
	recs := make([]*Signature, threads)
	owed := make([]*refSig, threads) // expectations of unmaterialized records

	switches := 0
	for step := 0; step < 6000; step++ {
		core := rng.Intn(cfg.Cores)
		th := running[core]
		c.access(core, uint64(th)<<12+uint64(rng.Intn(span[th])), evict, fill)
		if quantum[core]--; quantum[core] > 0 {
			continue
		}
		quantum[core] = 20 + rng.Intn(41)
		switches++

		if owed[th] != nil {
			compareRecord(t, switches, recs[th], *owed[th])
			owed[th] = nil
		}
		want := m.contextSwitch(core)
		recs[th] = u.ContextSwitchInto(core, recs[th])
		compareRBV(t, switches, recs[th], want)
		if rng.Intn(2) == 0 {
			compareRecord(t, switches, recs[th], want)
		} else {
			owed[th] = &want
		}
		compareState(t, switches, u, m, c)

		ready = append(ready, th)
		running[core], ready = ready[0], ready[1:]
	}
	for th, want := range owed {
		if want != nil {
			compareRecord(t, -1, recs[th], *want)
		}
	}
	if switches < 50 {
		t.Fatalf("only %d context switches", switches)
	}
	return u
}

// compareRBV checks the parts of a record fixed at capture.
func compareRBV(t *testing.T, step int, got *Signature, want refSig) {
	t.Helper()
	if got.LastCore != want.core || got.Occupancy != len(want.rbv) {
		t.Fatalf("switch %d: last core/occupancy (%d, %d), model (%d, %d)",
			step, got.LastCore, got.Occupancy, want.core, len(want.rbv))
	}
	for i := 0; i < got.RBV.Len(); i++ {
		if got.RBV.Test(i) != want.rbv[i] {
			t.Fatalf("switch %d: RBV bit %d is %v, model %v", step, i, got.RBV.Test(i), want.rbv[i])
		}
	}
}

// compareRecord materializes a record and checks it field for field.
func compareRecord(t *testing.T, step int, got *Signature, want refSig) {
	t.Helper()
	got.Materialize()
	compareRBV(t, step, got, want)
	for j := range want.symbiosis {
		if got.Symbiosis[j] != want.symbiosis[j] || got.Overlap[j] != want.overlap[j] {
			t.Fatalf("switch %d core %d (record of core %d): symbiosis/overlap (%d, %d), model (%d, %d)",
				step, j, want.core, got.Symbiosis[j], got.Overlap[j], want.symbiosis[j], want.overlap[j])
		}
	}
}

// compareState checks the unit's counters and filters against the model,
// and against the resident lines while no counter has saturated.
func compareState(t *testing.T, step int, u *Unit, m *refModel, c *lruCache) {
	t.Helper()
	if u.Saturations != m.saturations || u.Underflows != m.underflows {
		t.Fatalf("switch %d: saturations/underflows (%d, %d), model (%d, %d)",
			step, u.Saturations, u.Underflows, m.saturations, m.underflows)
	}
	for i, n := range u.counters {
		if n != m.counters[i] {
			t.Fatalf("switch %d: counter %d = %d, model %d", step, i, n, m.counters[i])
		}
	}
	for core := range u.cf {
		for i := 0; i < u.entries; i++ {
			if u.cf[core].Test(i) != m.cf[core][i] || u.lf[core].Test(i) != m.lf[core][i] {
				t.Fatalf("switch %d: core %d bit %d CF/LF (%v, %v), model (%v, %v)", step, core, i,
					u.cf[core].Test(i), u.lf[core].Test(i), m.cf[core][i], m.lf[core][i])
			}
		}
	}
	if u.Saturations > 0 {
		return
	}
	resident := make([]uint32, u.entries)
	for set, fs := range c.frames {
		for way, f := range fs {
			i, ok := m.index(f.addr, set, way)
			if !f.valid || !ok {
				continue
			}
			resident[i]++
			if !u.cf[f.core].Test(i) {
				t.Fatalf("switch %d: line %#x filled by core %d is resident but CF bit %d is clear",
					step, f.addr, f.core, i)
			}
		}
	}
	for i, n := range u.counters {
		if n != resident[i] {
			t.Fatalf("switch %d: counter %d = %d, but %d resident lines hash to it", step, i, n, resident[i])
		}
		for core := range u.cf {
			if n == 0 && u.cf[core].Test(i) {
				t.Fatalf("switch %d: core %d CF bit %d set over a zero counter", step, core, i)
			}
		}
	}
}
