package bloom

import (
	"math/rand"
	"testing"
)

// lazyTestConfig returns the 4-core unit configuration the parity tests
// drive through a lazy unit and its eager twin.
func lazyTestConfig() Config {
	return Config{
		Geometry:    Geometry{Sets: 64, Ways: 4},
		Cores:       4,
		Hash:        HashXOR,
		CounterBits: 8,
		SampleRate:  1,
	}
}

// ContextSwitchEagerInto is the parity oracle for ContextSwitchInto: the
// capture with the symbiosis/overlap vectors computed at the switch, as the
// hardware description in §3.1 does. The returned signature is fully
// materialized and holds no version references. A unit driven through it
// must see the same event stream as the lazy unit it is compared with.
func (u *Unit) ContextSwitchEagerInto(core int, reuse *Signature) *Signature {
	cf := u.cf[core]
	sig := reuse
	if sig != nil && sig.unit != nil {
		sig.releaseRefs()
	}
	if sig == nil || sig.RBV == nil || sig.RBV.Len() != u.entries ||
		len(sig.Symbiosis) != u.cfg.Cores || len(sig.Overlap) != u.cfg.Cores {
		sig = u.takeSignature()
	}
	sig.ensureLazy(u.cfg.Cores)
	rbv := sig.RBV
	rbv.AndNot(cf, u.lf[core])
	sig.LastCore = core
	sig.Occupancy = rbv.PopCount()
	for j := 0; j < u.cfg.Cores; j++ {
		if j == core {
			u.scratchFor().AndNot(cf, rbv)
			sig.Symbiosis[j], sig.Overlap[j] = rbv.XorAndCount(u.scratch)
		} else {
			sig.Symbiosis[j], sig.Overlap[j] = rbv.XorAndCount(u.cf[j])
		}
		sig.valid[j] = true
	}
	sig.mat = true
	u.lf[core].CopyFrom(cf)
	return sig
}

// mustEqualSig asserts a materialized lazy signature matches its eager twin
// field for field.
func mustEqualSig(t *testing.T, step int, lz, eg *Signature) {
	t.Helper()
	lz.Materialize()
	if lz.LastCore != eg.LastCore || lz.Occupancy != eg.Occupancy {
		t.Fatalf("step %d: lastCore/occupancy (%d,%d) vs eager (%d,%d)",
			step, lz.LastCore, lz.Occupancy, eg.LastCore, eg.Occupancy)
	}
	if len(lz.Symbiosis) != len(eg.Symbiosis) {
		t.Fatalf("step %d: symbiosis length %d vs %d", step, len(lz.Symbiosis), len(eg.Symbiosis))
	}
	for j := range lz.Symbiosis {
		if lz.Symbiosis[j] != eg.Symbiosis[j] || lz.Overlap[j] != eg.Overlap[j] {
			t.Fatalf("step %d core %d: sym/ov (%d,%d) vs eager (%d,%d)",
				step, j, lz.Symbiosis[j], lz.Overlap[j], eg.Symbiosis[j], eg.Overlap[j])
		}
	}
	if !lz.RBV.Equal(eg.RBV) {
		t.Fatalf("step %d: RBV diverged", step)
	}
}

// TestLazyCaptureParityRandomSchedules drives a lazy and an eager unit
// through identical random event streams — fills, evictions, context
// switches with per-thread record reuse, discards and resets — and checks
// every signature pair for exact equality, materializing at random delays so
// filters mutate between capture and read (the case the copy-on-write
// versioning exists for).
func TestLazyCaptureParityRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		cfg := lazyTestConfig()
		ul, ue := NewUnit(cfg), NewUnit(cfg)
		rng := rand.New(rand.NewSource(1000 + seed))

		const threads = 8
		sigsL := make([]*Signature, threads)
		sigsE := make([]*Signature, threads)
		captured := make([]bool, threads)

		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(100); {
			case op < 55: // fill
				core := rng.Intn(cfg.Cores)
				addr := uint64(rng.Intn(600))
				set, way := rng.Intn(64), rng.Intn(4)
				ul.OnFill(core, addr, set, way)
				ue.OnFill(core, addr, set, way)
			case op < 75: // evict
				addr := uint64(rng.Intn(600))
				set, way := rng.Intn(64), rng.Intn(4)
				ul.OnEvict(addr, set, way)
				ue.OnEvict(addr, set, way)
			case op < 95: // context switch of a random thread on its home core
				th := rng.Intn(threads)
				core := th % cfg.Cores
				sigsL[th] = ul.ContextSwitchInto(core, sigsL[th])
				sigsE[th] = ue.ContextSwitchEagerInto(core, sigsE[th])
				captured[th] = true
				if rng.Intn(3) == 0 { // sometimes read immediately
					mustEqualSig(t, step, sigsL[th], sigsE[th])
				}
			case op < 97: // discarded reshuffle switch
				core := rng.Intn(cfg.Cores)
				ul.DiscardSwitch(core)
				ue.DiscardSwitch(core)
			case op < 98: // delayed read of a random captured thread
				th := rng.Intn(threads)
				if captured[th] {
					mustEqualSig(t, step, sigsL[th], sigsE[th])
				}
			default: // machine reset: outstanding records must stay comparable
				for th := range sigsL {
					if captured[th] {
						mustEqualSig(t, step, sigsL[th], sigsE[th])
					}
				}
				ul.Reset()
				ue.Reset()
			}
		}
		for th := range sigsL {
			if captured[th] {
				mustEqualSig(t, -1, sigsL[th], sigsE[th])
			}
		}
	}
}

// TestLazyCaptureParityPaperGeometry checks lazy against the eager oracle at
// the paper's geometry (4096 sets × 16 ways, 1/4 set sampling, 8-bit
// counters) over the (threads, cores) cells cmd/bench's sig layer measures,
// replaying that benchmark's schedule: per switch, two LCG-placed fills on
// the switching core and, once a 4096-entry history ring is warm, FIFO
// evictions of the oldest fills; max(2P, 512) switches, twice. Every
// thread's record is read only at the end, so most captures materialize
// against frozen filter versions.
func TestLazyCaptureParityPaperGeometry(t *testing.T) {
	type fill struct {
		addr     uint64
		set, way int
	}
	for _, cell := range [][2]int{{8, 2}, {32, 4}, {64, 8}, {256, 16}, {1024, 64}} {
		p, n := cell[0], cell[1]
		cfg := DefaultConfig(Geometry{Sets: 4096, Ways: 16}, n)
		cfg.CounterBits = 8
		ul, ue := NewUnit(cfg), NewUnit(cfg)
		sigsL := make([]*Signature, p)
		sigsE := make([]*Signature, p)
		rng := uint64(0x9E3779B97F4A7C15)
		hist := make([]fill, 0, 4096)
		pos := 0
		iters := max(2*p, 512)
		for i := 0; i < 2*iters; i++ {
			th := i % p // iters is a multiple of p in every cell
			core := th % n
			for f := 0; f < 2; f++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				r := rng >> 16
				rec := fill{addr: r, set: int(r % 4096), way: int((r >> 12) % 16)}
				ul.OnFill(core, rec.addr, rec.set, rec.way)
				ue.OnFill(core, rec.addr, rec.set, rec.way)
				if len(hist) < cap(hist) {
					hist = append(hist, rec)
					continue
				}
				old := hist[pos]
				ul.OnEvict(old.addr, old.set, old.way)
				ue.OnEvict(old.addr, old.set, old.way)
				hist[pos] = rec
				pos = (pos + 1) % len(hist)
			}
			sigsL[th] = ul.ContextSwitchInto(core, sigsL[th])
			sigsE[th] = ue.ContextSwitchEagerInto(core, sigsE[th])
		}
		for th := range sigsL {
			if sigsL[th] == nil {
				continue
			}
			mustEqualSig(t, th, sigsL[th], sigsE[th])
		}
		if ul.Freezes == 0 {
			t.Fatalf("P=%d N=%d: no filter version frozen; the schedule never exercised copy-on-write", p, n)
		}
	}
}

// TestLazyMaterializeSeesCaptureTimeFilters is the directed copy-on-write
// case: a signature captured lazily, with heavy filter mutation before the
// first read, must materialize against the capture-time filter contents.
func TestLazyMaterializeSeesCaptureTimeFilters(t *testing.T) {
	cfg := lazyTestConfig()
	ul, ue := NewUnit(cfg), NewUnit(cfg)
	feed := func(u *Unit) {
		for i := 0; i < 40; i++ {
			u.OnFill(1, uint64(1000+i), i%64, i%4)
		}
		for i := 0; i < 20; i++ {
			u.OnFill(0, uint64(i), i%64, i%4)
		}
	}
	feed(ul)
	feed(ue)
	lz := ul.ContextSwitchInto(0, nil)
	eg := ue.ContextSwitchEagerInto(0, nil) // eager: values fixed here

	// Mutate every core's filter after the lazy capture: new fills (0→1) and
	// counter-zero evictions (1→0) both force version freezes.
	for i := 0; i < 40; i++ {
		ul.OnFill(2, uint64(5000+i), (i*7)%64, i%4)
		ul.OnFill(1, uint64(7000+i), (i*5)%64, i%4)
	}
	for i := 0; i < 20; i++ {
		ul.OnEvict(uint64(1000+i), i%64, i%4)
	}
	if ul.Freezes == 0 {
		t.Fatal("no versions frozen despite mutations under an outstanding reference")
	}
	mustEqualSig(t, 0, lz, eg)
}

// TestLazyMemoAcrossSwitches pins the cross-switch memoization: when the RBV
// and every filter version are unchanged between two captures into the same
// record, a prior materialization stays valid (mat short-circuits) and the
// values still match an eager twin.
func TestLazyMemoAcrossSwitches(t *testing.T) {
	cfg := lazyTestConfig()
	ul, ue := NewUnit(cfg), NewUnit(cfg)
	for i := 0; i < 30; i++ {
		ul.OnFill(0, uint64(i), i%64, i%4)
		ue.OnFill(0, uint64(i), i%64, i%4)
	}
	lz := ul.ContextSwitchInto(0, nil)
	eg := ue.ContextSwitchEagerInto(0, nil)
	lz.Materialize()
	if !lz.mat {
		t.Fatal("not materialized")
	}
	// Idle quantum: no fills. RBV becomes empty on the next capture (all of
	// CF is in LF now) — values must still match the eager twin.
	lz = ul.ContextSwitchInto(0, lz)
	eg = ue.ContextSwitchEagerInto(0, eg)
	mustEqualSig(t, 1, lz, eg)
	// A further idle quantum reproduces the same (empty) RBV against the same
	// filter versions: the memo must survive the capture with no recompute.
	lz = ul.ContextSwitchInto(0, lz)
	eg = ue.ContextSwitchEagerInto(0, eg)
	if !lz.mat {
		t.Fatal("memo invalidated despite unchanged RBV and filter versions")
	}
	mustEqualSig(t, 2, lz, eg)
}

// TestSignatureReleaseRecycles pins the unit-level record pool: a released
// record is handed back by the next pool capture, and its version references
// are gone.
func TestSignatureReleaseRecycles(t *testing.T) {
	u := NewUnit(lazyTestConfig())
	u.OnFill(0, 42, 0, 0)
	sig := u.ContextSwitchInto(0, nil)
	sig.Release()
	if sig.unit != nil || sig.cfRefs[0] != nil {
		t.Fatal("release left lazy state attached")
	}
	again := u.ContextSwitchInto(0, nil)
	if again != sig {
		t.Fatal("pooled record not reused by the next capture")
	}
	again.Materialize()
}

// TestCaptureSteadyStateAllocs pins the per-switch capture at zero
// allocations after warmup, including the copy-on-write freeze path (the
// version and vector pools must cycle, not grow).
func TestCaptureSteadyStateAllocs(t *testing.T) {
	u := NewUnit(lazyTestConfig())
	const threads = 4
	sigs := make([]*Signature, threads)
	round := func(base uint64) {
		for i := 0; i < 16; i++ {
			u.OnFill(i%4, base+uint64(i), i%64, i%4)
		}
		for th := 0; th < threads; th++ {
			sigs[th] = u.ContextSwitchInto(th%4, sigs[th])
		}
		for th := 0; th < threads; th++ {
			sigs[th].Materialize()
		}
		for i := 0; i < 16; i++ {
			u.OnEvict(base+uint64(i), i%64, i%4)
		}
	}
	// Warmup: let filters, version pools and scratch reach steady depth.
	for w := 0; w < 8; w++ {
		round(uint64(100 * w))
	}
	allocs := testing.AllocsPerRun(50, func() {
		round(4242)
	})
	if allocs != 0 {
		t.Fatalf("steady-state capture allocates %.1f objects per round, want 0", allocs)
	}
}

func BenchmarkUnitContextSwitchLazy(b *testing.B) {
	g := Geometry{Sets: 4096, Ways: 16}
	cfg := DefaultConfig(g, 8)
	u := NewUnit(cfg)
	for i := 0; i < 100000; i++ {
		u.OnFill(i&7, uint64(i)*64, i&4095, i&15)
	}
	sigs := make([]*Signature, 8)
	for c := 0; c < 8; c++ {
		sigs[c] = u.ContextSwitchInto(c, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i & 7
		sigs[c] = u.ContextSwitchInto(c, sigs[c])
	}
}
