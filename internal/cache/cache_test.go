package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallConfig() Config { return Config{SizeBytes: 8 * 64, LineBytes: 64, Ways: 1} }

func TestConfigGeometry(t *testing.T) {
	c := Config{SizeBytes: 4 << 20, LineBytes: 64, Ways: 16}
	if got := c.Sets(); got != 4096 {
		t.Fatalf("Sets = %d, want 4096", got)
	}
	if got := c.Lines(); got != 65536 {
		t.Fatalf("Lines = %d, want 65536", got)
	}
	if got := c.LineShift(); got != 6 {
		t.Fatalf("LineShift = %d, want 6", got)
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	bad := []Config{
		{SizeBytes: 1024, LineBytes: 0, Ways: 1},
		{SizeBytes: 1024, LineBytes: 48, Ways: 1},
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{SizeBytes: 1000, LineBytes: 64, Ways: 1},
		{SizeBytes: 3 * 64, LineBytes: 64, Ways: 1},   // 3 sets: not a power of two
		{SizeBytes: 17 * 64, LineBytes: 64, Ways: 17}, // more ways than the recency stack holds
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic: %+v", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(smallConfig())
	if c.Access(0, 0x100) {
		t.Fatal("cold access reported hit")
	}
	if !c.Access(0, 0x100) {
		t.Fatal("second access reported miss")
	}
	if !c.Access(0, 0x13f) { // same 64-byte line
		t.Fatal("same-line access reported miss")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(smallConfig()) // 8 sets, direct mapped
	// Two addresses 8 lines apart map to the same set and must conflict.
	a, b := uint64(0), uint64(8*64)
	c.Access(0, a)
	c.Access(0, b)
	if c.Contains(a) {
		t.Fatal("direct-mapped conflict did not evict the first line")
	}
	if !c.Contains(b) {
		t.Fatal("filling line not resident")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 64, LineBytes: 64, Ways: 2}) // 1 set, 2 ways
	lineStride := uint64(64)
	a, b, d := 0*lineStride, 1*lineStride, 2*lineStride
	c.Access(0, a) // a is LRU after...
	c.Access(0, b)
	c.Access(0, a) // ...touching a again: b is LRU
	c.Access(0, d) // must evict b
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Fatalf("LRU eviction wrong: a=%v b=%v d=%v", c.Contains(a), c.Contains(b), c.Contains(d))
	}
}

func TestInvalidFramePreferredOverLRU(t *testing.T) {
	c := New(Config{SizeBytes: 4 * 64, LineBytes: 64, Ways: 4})
	c.Access(0, 0)
	c.Access(0, 64)
	c.Access(0, 128) // one invalid way remains
	c.Access(0, 192)
	if c.Stats().Evictions != 0 {
		t.Fatal("evicted a line while invalid frames remained")
	}
}

type recordingListener struct {
	fills  []uint64
	evicts []uint64
	cores  []int
}

func (r *recordingListener) OnFill(core int, lineAddr uint64, set, way int) {
	r.fills = append(r.fills, lineAddr)
	r.cores = append(r.cores, core)
}
func (r *recordingListener) OnEvict(lineAddr uint64, set, way int) {
	r.evicts = append(r.evicts, lineAddr)
}

func TestListenerEvents(t *testing.T) {
	c := New(smallConfig())
	rl := &recordingListener{}
	c.SetListener(rl)
	c.Access(3, 0)    // fill line 0 by core 3
	c.Access(3, 0)    // hit: no events
	c.Access(1, 8*64) // conflict: evict line 0, fill line 8
	if len(rl.fills) != 2 || len(rl.evicts) != 1 {
		t.Fatalf("fills=%d evicts=%d, want 2/1", len(rl.fills), len(rl.evicts))
	}
	if rl.fills[0] != 0 || rl.fills[1] != 8 {
		t.Fatalf("fill line addrs = %v", rl.fills)
	}
	if rl.evicts[0] != 0 {
		t.Fatalf("evict line addr = %v", rl.evicts)
	}
	if rl.cores[0] != 3 || rl.cores[1] != 1 {
		t.Fatalf("fill cores = %v", rl.cores)
	}
}

func TestFlush(t *testing.T) {
	c := New(Config{SizeBytes: 4 * 64, LineBytes: 64, Ways: 4})
	rl := &recordingListener{}
	c.SetListener(rl)
	for i := uint64(0); i < 4; i++ {
		c.Access(0, i*64)
	}
	c.Flush()
	if c.ResidentLines() != 0 {
		t.Fatal("lines resident after Flush")
	}
	if len(rl.evicts) != 4 {
		t.Fatalf("flush reported %d evictions, want 4", len(rl.evicts))
	}
}

func TestPerCoreStats(t *testing.T) {
	c := New(Config{SizeBytes: 1024 * 64, LineBytes: 64, Ways: 4})
	c.Access(0, 0)
	c.Access(0, 0)
	c.Access(1, 64)
	s0, s1 := c.CoreStats(0), c.CoreStats(1)
	if s0.Accesses != 2 || s0.Hits != 1 || s0.Misses != 1 {
		t.Fatalf("core0 stats = %+v", s0)
	}
	if s1.Accesses != 1 || s1.Misses != 1 {
		t.Fatalf("core1 stats = %+v", s1)
	}
	if got := c.CoreStats(99); got != (Stats{}) {
		t.Fatalf("unseen core stats = %+v, want zero", got)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := New(smallConfig())
	c.Access(0, 0)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatal("stats not reset")
	}
	if !c.Contains(0) {
		t.Fatal("ResetStats flushed contents")
	}
}

// TestPerCoreStatsGrowth is the regression test for the stats-table growth
// path: rows must survive growth to much higher core indices (including
// out-of-order arrival and the amortized-doubling over-allocation), survive
// ResetStats without losing their slots, and never bleed between cores.
func TestPerCoreStatsGrowth(t *testing.T) {
	c := New(Config{SizeBytes: 1024 * 64, LineBytes: 64, Ways: 4})
	// Ascending arrival: one miss per core, across a growth boundary.
	for core := 0; core < 33; core++ {
		c.Access(core, uint64(core)*64)
	}
	for core := 0; core < 33; core++ {
		if s := c.CoreStats(core); s.Misses != 1 || s.Hits != 0 {
			t.Fatalf("core %d stats after growth = %+v, want 1 miss", core, s)
		}
	}
	// Out-of-order, far-beyond-current-length arrival.
	c.Access(200, 64*1000)
	c.Access(100, 64*1001)
	if s := c.CoreStats(200); s.Misses != 1 {
		t.Fatalf("core 200 stats = %+v", s)
	}
	if s := c.CoreStats(100); s.Misses != 1 {
		t.Fatalf("core 100 stats = %+v", s)
	}
	// The over-allocated tail rows read as zero, exactly like unseen cores.
	if s := c.CoreStats(150); s != (Stats{}) {
		t.Fatalf("untouched core 150 stats = %+v, want zero", s)
	}
	// ResetStats keeps the rows: accounting resumes at the same indices.
	c.ResetStats()
	if s := c.CoreStats(200); s != (Stats{}) {
		t.Fatalf("core 200 stats after reset = %+v, want zero", s)
	}
	c.Access(200, 64*1000) // line is resident: a pure hit
	s := c.CoreStats(200)
	if s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("core 200 stats after reset+hit = %+v, want 1 hit", s)
	}
	if s := c.CoreStats(100); s != (Stats{}) {
		t.Fatalf("core 100 bled counts from core 200: %+v", s)
	}
	// The batch-credit entry point grows the table too.
	c2 := New(Config{SizeBytes: 1024 * 64, LineBytes: 64, Ways: 4})
	c2.AddCoreStats(64, 10, 3)
	if s := c2.CoreStats(64); s.Hits != 10 || s.Misses != 3 || s.Accesses != 13 {
		t.Fatalf("AddCoreStats(64) = %+v", s)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("zero stats MissRate != 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Fatalf("MissRate = %g, want 0.25", s.MissRate())
	}
}

// Property: the number of resident lines never exceeds capacity, and after
// enough accesses to distinct lines within one set, residency equals ways.
func TestCapacityInvariantQuick(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 64, LineBytes: 64, Ways: 4} // 16 sets
	f := func(addrs []uint16) bool {
		c := New(cfg)
		for _, a := range addrs {
			c.Access(0, uint64(a)*64)
		}
		return c.ResidentLines() <= cfg.Lines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits + misses = accesses, and evictions ≤ misses.
func TestStatsConservationQuick(t *testing.T) {
	cfg := Config{SizeBytes: 32 * 64, LineBytes: 64, Ways: 2}
	f := func(addrs []uint16, seed int64) bool {
		c := New(cfg)
		rng := rand.New(rand.NewSource(seed))
		for _, a := range addrs {
			c.Access(rng.Intn(2), uint64(a)*64)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses && s.Evictions <= s.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Working set that fits in the cache must converge to a 0% steady-state miss
// rate; a working set that exceeds one set's ways at stride Sets must thrash.
func TestSteadyStateBehaviour(t *testing.T) {
	cfg := Config{SizeBytes: 256 * 64, LineBytes: 64, Ways: 4} // 64 sets
	c := New(cfg)
	// Fit: 100 distinct lines spread over sets.
	for pass := 0; pass < 5; pass++ {
		for i := uint64(0); i < 100; i++ {
			c.Access(0, i*64)
		}
	}
	st := c.Stats()
	if st.Misses != 100 {
		t.Fatalf("fitting working set missed %d times, want 100 cold misses only", st.Misses)
	}

	// Thrash: 5 lines mapping to one 4-way set, round robin → every access
	// misses after warmup (classic LRU pathology).
	c2 := New(cfg)
	for pass := 0; pass < 10; pass++ {
		for i := uint64(0); i < 5; i++ {
			c2.Access(0, i*64*64) // stride of 64 sets: all in set 0
		}
	}
	st2 := c2.Stats()
	if st2.Hits != 0 {
		t.Fatalf("thrashing pattern got %d hits, want 0", st2.Hits)
	}
}

func BenchmarkCacheAccessHit(b *testing.B) {
	c := New(Config{SizeBytes: 4 << 20, LineBytes: 64, Ways: 16})
	c.Access(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(0, 0)
	}
}

func BenchmarkCacheAccessStream(b *testing.B) {
	c := New(Config{SizeBytes: 4 << 20, LineBytes: 64, Ways: 16})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(0, uint64(i)*64)
	}
}

func TestReplacementString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "random" {
		t.Fatal("Replacement strings wrong")
	}
	if Replacement(9).String() != "Replacement(9)" {
		t.Fatal("unknown replacement string wrong")
	}
}

func TestFIFOIgnoresReuse(t *testing.T) {
	// 1 set, 2 ways. Under FIFO, re-touching the oldest line does not save
	// it: fill order alone decides.
	c := New(Config{SizeBytes: 2 * 64, LineBytes: 64, Ways: 2, Replace: FIFO})
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(0, a)
	c.Access(0, b)
	c.Access(0, a) // reuse a — irrelevant under FIFO
	c.Access(0, d) // must evict a (oldest fill)
	if c.Contains(a) {
		t.Fatal("FIFO kept the re-touched oldest line (behaved like LRU)")
	}
	if !c.Contains(b) || !c.Contains(d) {
		t.Fatal("FIFO evicted the wrong line")
	}
}

func TestRandomReplacementDeterministicAndValid(t *testing.T) {
	run := func() []uint64 {
		c := New(Config{SizeBytes: 4 * 64, LineBytes: 64, Ways: 4, Replace: Random})
		var resident []uint64
		for i := uint64(0); i < 64; i++ {
			c.Access(0, i*64*16) // all map to set 0
		}
		for i := uint64(0); i < 64; i++ {
			if c.Contains(i * 64 * 16) {
				resident = append(resident, i)
			}
		}
		return resident
	}
	r1, r2 := run(), run()
	if len(r1) != 4 {
		t.Fatalf("random replacement kept %d lines in a 4-way set", len(r1))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("random replacement not deterministic across runs")
		}
	}
}

func TestRandomReplacementSpreadsVictims(t *testing.T) {
	// Unlike LRU, random replacement sometimes keeps recently-used lines
	// out and older ones in; over many conflict evictions every way must
	// get victimised at least once.
	c := New(Config{SizeBytes: 8 * 64, LineBytes: 64, Ways: 8, Replace: Random})
	victims := map[int]bool{}
	c.SetListener(listenerFunc(func(set, way int) { victims[way] = true }))
	for i := uint64(0); i < 400; i++ {
		c.Access(0, i*64*8) // one set
	}
	if len(victims) != 8 {
		t.Fatalf("random policy victimised only ways %v", victims)
	}
}

// listenerFunc adapts a function to the eviction side of Listener.
type listenerFunc func(set, way int)

func (f listenerFunc) OnFill(core int, lineAddr uint64, set, way int) {}
func (f listenerFunc) OnEvict(lineAddr uint64, set, way int)          { f(set, way) }
