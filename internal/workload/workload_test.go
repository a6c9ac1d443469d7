package workload

import (
	"testing"
	"testing/quick"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds produced identical first outputs")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g", f)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestStridePatternWraps(t *testing.T) {
	p := &StridePattern{Region: 256, Stride: 64}
	r := NewRand(1)
	want := []uint64{0, 64, 128, 192, 0, 64}
	for i, w := range want {
		if got := p.Next(r); got != w {
			t.Fatalf("step %d: got %d, want %d", i, got, w)
		}
	}
}

func TestStridePatternFig1Shapes(t *testing.T) {
	// Fig 1: with an 8-set direct-mapped cache, stride 8 lines touches one
	// set; stride 4 lines touches two; both miss every time.
	r := NewRand(1)
	wide := &StridePattern{Region: 8 * 64 * 4, Stride: 8 * 64}
	sets := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		sets[(wide.Next(r)/64)%8] = true
	}
	if len(sets) != 1 {
		t.Fatalf("stride-8 pattern touched %d sets, want 1", len(sets))
	}
}

func TestStreamPatternSequential(t *testing.T) {
	p := &StreamPattern{Region: 4 * 64}
	r := NewRand(1)
	for pass := 0; pass < 3; pass++ {
		for i := uint64(0); i < 4; i++ {
			if got := p.Next(r); got != i*64 {
				t.Fatalf("pass %d step %d: got %d", pass, i, got)
			}
		}
	}
}

func TestRandomPatternInRange(t *testing.T) {
	p := &RandomPattern{Region: 1024}
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		off := p.Next(r)
		if off >= 1024 || off%64 != 0 {
			t.Fatalf("offset %d out of range or unaligned", off)
		}
	}
}

func TestHotspotPatternDistribution(t *testing.T) {
	p := &HotspotPattern{HotRegion: 640, ColdRegion: 64000, Hot: 0.9}
	r := NewRand(6)
	hot := 0
	const n = 10000
	for i := 0; i < n; i++ {
		off := p.Next(r)
		if off < 640 {
			hot++
		} else if off < 640 || off >= 640+64000 {
			t.Fatalf("offset %d outside regions", off)
		}
	}
	if frac := float64(hot) / n; frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction %g, want ≈0.9", frac)
	}
}

func TestChasePatternVisitsPermutationCycle(t *testing.T) {
	p := &ChasePattern{Region: 64 * 64, Seed: 3}
	r := NewRand(1)
	seen := map[uint64]int{}
	for i := 0; i < 64*4; i++ {
		seen[p.Next(r)]++
	}
	// A permutation walk from a fixed start traverses one cycle; every line
	// on the cycle is visited equally often over whole cycles.
	if len(seen) < 2 {
		t.Fatalf("chase visited only %d lines", len(seen))
	}
	for off := range seen {
		if off >= 64*64 || off%64 != 0 {
			t.Fatalf("chase offset %d invalid", off)
		}
	}
}

func TestChaseCloneIdenticalWalk(t *testing.T) {
	a := &ChasePattern{Region: 32 * 64, Seed: 9}
	b := a.Clone()
	r1, r2 := NewRand(1), NewRand(1)
	for i := 0; i < 100; i++ {
		if a.Next(r1) != b.Next(r2) {
			t.Fatal("cloned chase diverged")
		}
	}
}

func TestPhasedPatternSwitches(t *testing.T) {
	p := &PhasedPattern{
		Phases: []Pattern{
			&StridePattern{Region: 64, Stride: 64},  // always offset 0
			&StridePattern{Region: 128, Stride: 64}, // offsets 0,64
		},
		OpsPerPhase: 3,
	}
	r := NewRand(1)
	phases := map[int]bool{}
	for i := 0; i < 12; i++ {
		p.Next(r)
		phases[p.cur] = true
	}
	if len(phases) != 2 {
		t.Fatalf("phased pattern visited %d phases, want 2", len(phases))
	}
	if got, want := p.Footprint(), uint64(128); got != want {
		t.Fatalf("Footprint = %d, want max phase %d", got, want)
	}
}

func TestValidate(t *testing.T) {
	good := []Pattern{
		&StridePattern{Region: 640, Stride: 64},
		&StreamPattern{Region: 640},
		&RandomPattern{Region: 640},
		&HotspotPattern{HotRegion: 640, ColdRegion: 640, Hot: 0.5},
		&ChasePattern{Region: 640},
		&PhasedPattern{Phases: []Pattern{&StreamPattern{Region: 640}}, OpsPerPhase: 10},
	}
	for _, p := range good {
		if err := Validate(p); err != nil {
			t.Errorf("Validate(%T) = %v", p, err)
		}
	}
	bad := []Pattern{
		&StridePattern{Region: 0, Stride: 64},
		&StreamPattern{Region: 63},
		&RandomPattern{Region: 32},
		&HotspotPattern{HotRegion: 640, ColdRegion: 640, Hot: 1.5},
		&ChasePattern{Region: 64},
		&PhasedPattern{},
	}
	for _, p := range bad {
		if err := Validate(p); err == nil {
			t.Errorf("Validate(%T %+v) accepted invalid pattern", p, p)
		}
	}
}

func TestGeneratorMemRatio(t *testing.T) {
	g := NewGenerator(GeneratorConfig{
		Pattern:  &StreamPattern{Region: 1024},
		MemRatio: 0.25,
		Seed:     1,
	})
	mem := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Next().Mem {
			mem++
		}
	}
	// The fractional accumulator makes the ratio exact over long runs.
	if mem != n/4 {
		t.Fatalf("memory ops = %d, want exactly %d", mem, n/4)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	mk := func() *Generator {
		return NewGenerator(GeneratorConfig{
			Pattern:  &RandomPattern{Region: 4096},
			MemRatio: 0.5,
			Base:     1 << 40,
			Seed:     77,
		})
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-config generators diverged")
		}
	}
}

func TestGeneratorSharedRegion(t *testing.T) {
	g := NewGenerator(GeneratorConfig{
		Pattern:    &RandomPattern{Region: 1024},
		Shared:     &RandomPattern{Region: 1024},
		SharedFrac: 0.5,
		MemRatio:   1.0,
		Base:       0,
		SharedBase: 1 << 30,
		Seed:       5,
	})
	sharedOps := 0
	const n = 10000
	for i := 0; i < n; i++ {
		ref := g.Next()
		if !ref.Mem {
			t.Fatal("MemRatio 1.0 produced a compute op")
		}
		if ref.Addr >= 1<<30 {
			sharedOps++
		}
	}
	if frac := float64(sharedOps) / n; frac < 0.45 || frac > 0.55 {
		t.Fatalf("shared fraction = %g, want ≈0.5", frac)
	}
}

func TestGeneratorPanics(t *testing.T) {
	for _, cfg := range []GeneratorConfig{
		{Pattern: nil, MemRatio: 0.5},
		{Pattern: &StreamPattern{Region: 64}, MemRatio: 0},
		{Pattern: &StreamPattern{Region: 64}, MemRatio: 1.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			NewGenerator(cfg)
		}()
	}
}

func TestSPEC2006Pool(t *testing.T) {
	pool := SPEC2006()
	if len(pool) != 12 {
		t.Fatalf("pool size = %d, want 12", len(pool))
	}
	classes := map[Class]int{}
	for _, p := range pool {
		if p.Threads != 1 {
			t.Errorf("%s: threads = %d, want 1", p.Name, p.Threads)
		}
		if p.MemRatio <= 0 || p.MemRatio > 1 || p.StackFrac < 0 || p.StackFrac > 1 {
			t.Errorf("%s: bad ratios %+v", p.Name, p)
		}
		if p.Instructions == 0 {
			t.Errorf("%s: zero instructions", p.Name)
		}
		classes[p.Class]++
		// Pattern must construct and validate at several scales.
		for _, div := range []uint64{1, 4, 16, 64} {
			gens := p.NewThreads(1, 42, div)
			if len(gens) != 1 {
				t.Fatalf("%s: %d generators", p.Name, len(gens))
			}
			for i := 0; i < 100; i++ {
				gens[0].Next()
			}
		}
	}
	// The paper's pool is "a diverse mix": all classes present.
	for _, c := range []Class{ComputeBound, CacheHungry, Streaming, Balanced} {
		if classes[c] == 0 {
			t.Errorf("class %v missing from pool", c)
		}
	}
}

func TestPARSECPool(t *testing.T) {
	pool := PARSEC()
	if len(pool) != 8 {
		t.Fatalf("pool size = %d, want 8", len(pool))
	}
	for _, p := range pool {
		if p.Threads != 4 {
			t.Errorf("%s: threads = %d, want 4 (paper config)", p.Name, p.Threads)
		}
		if p.SharedFrac <= 0 {
			t.Errorf("%s: multi-threaded profile without shared accesses", p.Name)
		}
		gens := p.NewThreads(3, 9, 16)
		if len(gens) != 4 {
			t.Fatalf("%s: %d generators", p.Name, len(gens))
		}
		// Threads of one process must share the process-shared region:
		// collect addresses from two threads and check overlap there.
		shared := map[uint64]bool{}
		count := 0
		for i := 0; i < 200000 && count < 100; i++ {
			ref := gens[0].Next()
			if ref.Mem && (ref.Addr>>threadShift)&0xff == sharedSlot {
				shared[ref.Addr>>6] = true
				count++
			}
		}
		if count == 0 {
			t.Errorf("%s: thread 0 never touched the shared region", p.Name)
		}
	}
}

func TestThreadsHaveDisjointPrivateRegions(t *testing.T) {
	p := PARSEC()[0]
	gens := p.NewThreads(1, 5, 16)
	bases := map[uint64]bool{}
	for ti, g := range gens {
		for i := 0; i < 1000; i++ {
			ref := g.Next()
			if ref.Mem && (ref.Addr>>threadShift)&0xff != sharedSlot {
				slot := (ref.Addr >> threadShift) & 0xff
				if slot != uint64(ti) {
					t.Fatalf("thread %d accessed slot %d", ti, slot)
				}
				bases[slot] = true
			}
		}
	}
	if len(bases) != len(gens) {
		t.Fatalf("private slots = %d, want %d", len(bases), len(gens))
	}
}

func TestProcessesHaveDisjointAddressSpaces(t *testing.T) {
	p := SPEC2006()[0]
	g1 := p.NewThreads(1, 5, 16)[0]
	g2 := p.NewThreads(2, 5, 16)[0]
	for i := 0; i < 1000; i++ {
		r1, r2 := g1.Next(), g2.Next()
		if r1.Mem && r1.Addr>>asidShift != 1 {
			t.Fatalf("asid 1 emitted address %#x", r1.Addr)
		}
		if r2.Mem && r2.Addr>>asidShift != 2 {
			t.Fatalf("asid 2 emitted address %#x", r2.Addr)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("mcf")
	if err != nil || p.Name != "mcf" {
		t.Fatalf("ByName(mcf) = %+v, %v", p, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("ByName(nonexistent) did not error")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names(SPEC2006())
	if len(names) != 12 {
		t.Fatalf("Names returned %d entries", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ComputeBound: "compute-bound",
		CacheHungry:  "cache-hungry",
		Streaming:    "streaming",
		Balanced:     "balanced",
		Class(17):    "Class(17)",
	} {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestScaledInstructionsFloor(t *testing.T) {
	p := Profile{Instructions: 10_000}
	if got := p.ScaledInstructions(1000); got != 1000 {
		t.Fatalf("ScaledInstructions floor = %d, want 1000", got)
	}
	if got := p.ScaledInstructions(2); got != 5000 {
		t.Fatalf("ScaledInstructions(2) = %d, want 5000", got)
	}
}

func TestScaleBytesQuick(t *testing.T) {
	f := func(b uint32, div8 uint8) bool {
		div := uint64(div8%64) + 1
		s := scaleBytes(uint64(b), div)
		return s >= 128 && s%64 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMixPattern(t *testing.T) {
	p := &MixPattern{
		A:       &RandomPattern{Region: 1024},
		B:       &StreamPattern{Region: 4096},
		AFrac:   0.25,
		BOffset: 1024,
	}
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	r := NewRand(3)
	aCount := 0
	const n = 20000
	for i := 0; i < n; i++ {
		off := p.Next(r)
		if off < 1024 {
			aCount++
		} else if off >= 1024+4096 {
			t.Fatalf("offset %d outside both regions", off)
		}
	}
	if frac := float64(aCount) / n; frac < 0.20 || frac > 0.30 {
		t.Fatalf("A fraction %.3f, want ≈0.25", frac)
	}
	if got := p.Footprint(); got != 1024+4096 {
		t.Fatalf("Footprint = %d", got)
	}
	c := p.Clone().(*MixPattern)
	if c.AFrac != p.AFrac || c.BOffset != p.BOffset {
		t.Fatal("clone lost parameters")
	}
	// Overlapping sub-regions are invalid.
	bad := &MixPattern{A: &RandomPattern{Region: 2048}, B: &StreamPattern{Region: 64}, AFrac: 0.5, BOffset: 1024}
	if err := Validate(bad); err == nil {
		t.Fatal("overlapping mix accepted")
	}
}

func TestPatternFootprints(t *testing.T) {
	cases := []struct {
		p    Pattern
		want uint64
	}{
		{&StridePattern{Region: 640, Stride: 64}, 640},
		{&StreamPattern{Region: 1280}, 1280},
		{&RandomPattern{Region: 2560}, 2560},
		{&HotspotPattern{HotRegion: 640, ColdRegion: 1280, Hot: 0.5}, 1920},
		{&ChasePattern{Region: 4096}, 4096},
	}
	for _, tc := range cases {
		if got := tc.p.Footprint(); got != tc.want {
			t.Errorf("%T: Footprint = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestClonesAreIndependent(t *testing.T) {
	patterns := []Pattern{
		&StridePattern{Region: 640, Stride: 64},
		&StreamPattern{Region: 640},
		&PhasedPattern{Phases: []Pattern{&StreamPattern{Region: 640}}, OpsPerPhase: 5},
	}
	for _, p := range patterns {
		c := p.Clone()
		r1, r2 := NewRand(1), NewRand(1)
		// Advance the original; the clone must still start from the top.
		for i := 0; i < 7; i++ {
			p.Next(r1)
		}
		first := c.Next(r2)
		fresh := p.Clone().Next(NewRand(1))
		if first != fresh {
			t.Errorf("%T: clone of advanced pattern did not reset (got %d, want %d)",
				p, first, fresh)
		}
	}
}

func TestStreamPatternCustomStep(t *testing.T) {
	p := &StreamPattern{Region: 1024, Step: 128}
	r := NewRand(1)
	if p.Next(r) != 0 || p.Next(r) != 128 {
		t.Fatal("custom step not honoured")
	}
}

func TestPhasedPatternEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty phased pattern did not panic")
		}
	}()
	(&PhasedPattern{OpsPerPhase: 1}).Next(NewRand(1))
}
