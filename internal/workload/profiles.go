package workload

import (
	"fmt"
	"sort"
)

// Class is the qualitative contention class the paper assigns workloads.
type Class int

const (
	// ComputeBound programs (povray, gobmk, sjeng) barely use the L2 and
	// are insensitive to co-runners.
	ComputeBound Class = iota
	// CacheHungry programs (mcf, omnetpp, soplex) have working sets near
	// the L2 size: they both suffer from and cause contention.
	CacheHungry
	// Streaming programs (libquantum, hmmer, milc) sweep large arrays with
	// little reuse: they pollute the L2 but gain little from it themselves.
	Streaming
	// Balanced programs (gcc, perlbench, bzip2) sit in between.
	Balanced
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ComputeBound:
		return "compute-bound"
	case CacheHungry:
		return "cache-hungry"
	case Streaming:
		return "streaming"
	case Balanced:
		return "balanced"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Profile describes one synthetic benchmark: the qualitative stand-in for a
// SPEC CPU2006 or PARSEC program. Region sizes are expressed for the
// reference machine (4MB shared L2); a scale divisor shrinks regions and
// instruction counts proportionally so experiments and tests can run on
// smaller simulated caches without changing the contention geometry.
type Profile struct {
	Name  string
	Class Class
	// MemRatio is the fraction of instructions that are memory operations.
	MemRatio float64
	// StackFrac is the fraction of memory operations that hit a small
	// per-thread stack region — the short-range temporal locality that
	// keeps real programs mostly inside the L1.
	StackFrac float64
	// Instructions is the dynamic instruction count of one complete run at
	// scale divisor 1.
	Instructions uint64
	// Threads is 1 for the SPEC-like pool and >1 for PARSEC-like programs.
	Threads int
	// SharedFrac is the fraction of non-stack memory operations that go to
	// the process-shared region (multi-threaded profiles only).
	SharedFrac float64

	// MakeSources, when set, replaces synthetic generation entirely: the
	// profile's threads run the returned instruction sources (trace replays,
	// custom models) instead of NewThreads generators. The asid keeps the
	// sources' address spaces disjoint exactly as NewThreads would; seed and
	// div are passed through for sources that still derive anything from
	// them (trace replays typically ignore both — the stream is the capture).
	MakeSources func(asid int, seed uint64, div uint64) []RunSource
	// Fingerprint identifies an externally sourced instruction stream (the
	// content hash of a trace file). It is empty for synthetic profiles;
	// when set it participates in workload cache keys and shard pool hashes
	// so two trace pools that happen to share benchmark names cannot be
	// confused for one another.
	Fingerprint string

	makePattern func(div uint64, seed uint64) Pattern
	makeShared  func(div uint64, seed uint64) Pattern // nil if single-threaded
}

const (
	kib = uint64(1) << 10
	mib = uint64(1) << 20

	// stackBytes is the per-thread stack region size: comfortably inside an
	// L1 so stack accesses model L1 temporal locality.
	stackBytes = 8 * kib

	// Address-space layout: each process occupies a disjoint 1TB region;
	// within it, each thread gets a 4GB private window and the process a
	// shared window. Stacks live at the top of each thread window.
	asidShift   = 40
	threadShift = 32
	sharedSlot  = 255 // thread slot reserved for the shared region
	stackOffset = uint64(3) << 30
)

// scaleBytes divides a region size by div, keeping it line-aligned and at
// least two lines so every pattern stays valid.
func scaleBytes(b, div uint64) uint64 {
	s := b / div
	s -= s % 64
	if s < 128 {
		s = 128
	}
	return s
}

// ScaledInstructions returns the instruction count at the given divisor.
func (p Profile) ScaledInstructions(div uint64) uint64 {
	n := p.Instructions / div
	if n < 1000 {
		n = 1000
	}
	return n
}

// Scale separates the two scaling knobs of a simulation: Region divides
// cache geometry and working-set sizes (preserving the contention shape on a
// smaller machine), while Instr divides dynamic instruction counts
// (shortening runs). They are independent because run length must stay long
// relative to the scheduler quantum and the cache refill time even on a
// shrunken machine.
type Scale struct {
	Region uint64
	Instr  uint64
}

// Validate reports an error for non-positive divisors.
func (s Scale) Validate() error {
	if s.Region == 0 || s.Instr == 0 {
		return fmt.Errorf("workload: scale divisors must be positive: %+v", s)
	}
	return nil
}

// TestScale keeps unit tests fast: a 1/64-size machine with 1/8-length runs.
var TestScale = Scale{Region: 64, Instr: 8}

// NewThreads instantiates the profile as a set of per-thread generators for
// the process with the given address-space ID. All randomness derives from
// seed, so identical (asid, seed, div) yield identical streams.
func (p Profile) NewThreads(asid int, seed uint64, div uint64) []*Generator {
	root := NewRand(seed ^ 0xabcdef)
	base := uint64(asid) << asidShift
	var shared Pattern
	if p.Threads > 1 && p.makeShared != nil {
		shared = p.makeShared(div, root.Uint64())
	}
	gens := make([]*Generator, p.Threads)
	for t := 0; t < p.Threads; t++ {
		tbase := base + uint64(t)<<threadShift
		priv := p.makePattern(div, root.Uint64())
		// Wrap the private pattern with the stack component: a small hot
		// region accessed with probability StackFrac. The stack scales with
		// the machine so it stays L1-resident at every scale divisor.
		stackRegion := scaleBytes(stackBytes, div)
		pat := &stackedPattern{
			stack:       &RandomPattern{Region: stackRegion},
			body:        priv,
			stackFrac:   p.StackFrac,
			stackThresh: NewThreshold(p.StackFrac),
			stackOff:    stackOffset,
			stackLines:  stackRegion / 64,
		}
		var sh Pattern
		if shared != nil {
			sh = shared.Clone()
		}
		gens[t] = NewGenerator(GeneratorConfig{
			Pattern:    pat,
			Shared:     sh,
			SharedFrac: p.SharedFrac * (1 - p.StackFrac), // shared ops never displace stack ops
			MemRatio:   p.MemRatio,
			Base:       tbase,
			SharedBase: base + uint64(sharedSlot)<<threadShift,
			Seed:       root.Uint64(),
		})
	}
	return gens
}

// NewSources instantiates the profile's threads as instruction sources: the
// MakeSources override when present (trace-driven profiles), the synthetic
// NewThreads generators otherwise. kernel.Workload consumes profiles through
// this method, drawing exactly one seed per profile either way, so a pool
// that mixes synthetic and trace-driven profiles perturbs neither's streams.
func (p Profile) NewSources(asid int, seed uint64, div uint64) []RunSource {
	if p.MakeSources != nil {
		return p.MakeSources(asid, seed, div)
	}
	gens := p.NewThreads(asid, seed, div)
	srcs := make([]RunSource, len(gens))
	for i, g := range gens {
		srcs[i] = g
	}
	return srcs
}

// stackedPattern routes a StackFrac share of accesses to a small stack
// region placed stackOff above the body region. The stack draw uses a
// precomputed Q53 threshold (exactly equivalent to Float64() < stackFrac)
// since it runs once per memory operation.
//
// The stack component is always a uniform RandomPattern; stackLines caches
// its line count so the stack draw is pure inline arithmetic
// (lineIn(r.Uint64(), stackLines)), and the Generator flattens this whole
// struct into its own fields (see NewGenerator) so the ~StackFrac share of
// address draws — 85–97% for the SPEC profiles — costs no interface
// dispatch at all.
type stackedPattern struct {
	stack       Pattern
	body        Pattern
	stackFrac   float64
	stackThresh Threshold
	stackOff    uint64
	stackLines  uint64 // stack region size in cache lines
}

func (s *stackedPattern) Next(r *Rand) uint64 {
	if r.Below(s.stackThresh) {
		// Identical draw sequence to s.stack.Next(r) for a RandomPattern.
		return s.stackOff + lineIn(r.Uint64(), s.stackLines)
	}
	return s.body.Next(r)
}

func (s *stackedPattern) Footprint() uint64 { return s.body.Footprint() + s.stack.Footprint() }

// Reset rewinds both components (the stack is a stateless RandomPattern, but
// keep the call so a future stateful stack component cannot be missed).
func (s *stackedPattern) Reset() {
	s.stack.Reset()
	s.body.Reset()
}

func (s *stackedPattern) Clone() Pattern {
	return &stackedPattern{
		stack:       s.stack.Clone(),
		body:        s.body.Clone(),
		stackFrac:   s.stackFrac,
		stackThresh: s.stackThresh,
		stackOff:    s.stackOff,
		stackLines:  s.stackLines,
	}
}

func hotspot(hot, cold uint64, frac float64) func(div uint64, seed uint64) Pattern {
	return func(div uint64, _ uint64) Pattern {
		return &HotspotPattern{
			HotRegion:  scaleBytes(hot, div),
			ColdRegion: scaleBytes(cold, div),
			Hot:        frac,
		}
	}
}

func stream(region uint64) func(div uint64, seed uint64) Pattern {
	return func(div uint64, _ uint64) Pattern {
		return &StreamPattern{Region: scaleBytes(region, div)}
	}
}

func random(region uint64) func(div uint64, seed uint64) Pattern {
	return func(div uint64, _ uint64) Pattern {
		return &RandomPattern{Region: scaleBytes(region, div)}
	}
}

func chase(region uint64) func(div uint64, seed uint64) Pattern {
	return func(div uint64, seed uint64) Pattern {
		return &ChasePattern{Region: scaleBytes(region, div), Seed: seed}
	}
}

// SPEC2006 returns the 12-benchmark single-threaded pool of §2.3/§4.2.
// The mix deliberately covers the paper's three behaviour classes.
//
// The parameters are calibrated so that, on the reference machine (4MB
// shared L2), a sensitive benchmark's hot-region re-touch time is comparable
// to the L2 churn time induced by a streaming aggressor — the regime in
// which LRU stops protecting the hot working set and the paper's contention
// effects appear. Instruction counts aim for roughly equal solo runtimes
// (the paper's pool completes within 99–126 s).
func SPEC2006() []Profile {
	return []Profile{
		{Name: "mcf", Class: CacheHungry, MemRatio: 0.40, StackFrac: 0.93,
			Instructions: 16_000_000, Threads: 1, makePattern: chase(3 * mib)},
		{Name: "omnetpp", Class: CacheHungry, MemRatio: 0.35, StackFrac: 0.88,
			Instructions: 16_000_000, Threads: 1, makePattern: random(2560 * kib)},
		{Name: "soplex", Class: CacheHungry, MemRatio: 0.30, StackFrac: 0.85,
			Instructions: 12_500_000, Threads: 1, makePattern: hotspot(1792*kib, 4*mib, 0.80)},
		{Name: "gcc", Class: Balanced, MemRatio: 0.30, StackFrac: 0.85,
			Instructions: 13_000_000, Threads: 1, makePattern: hotspot(1*mib, 3*mib, 0.85)},
		{Name: "perlbench", Class: Balanced, MemRatio: 0.30, StackFrac: 0.90,
			Instructions: 16_000_000, Threads: 1, makePattern: hotspot(768*kib, 768*kib, 0.90)},
		{Name: "bzip2", Class: Balanced, MemRatio: 0.30, StackFrac: 0.85,
			Instructions: 13_000_000, Threads: 1, makePattern: hotspot(512*kib, 1536*kib, 0.85)},
		{Name: "libquantum", Class: Streaming, MemRatio: 0.35, StackFrac: 0.40,
			Instructions: 7_400_000, Threads: 1, makePattern: libquantumPattern},
		{Name: "hmmer", Class: Streaming, MemRatio: 0.45, StackFrac: 0.50,
			Instructions: 6_500_000, Threads: 1, makePattern: stream(8 * mib)},
		{Name: "milc", Class: Streaming, MemRatio: 0.35, StackFrac: 0.50,
			Instructions: 8_000_000, Threads: 1, makePattern: stream(6 * mib)},
		{Name: "povray", Class: ComputeBound, MemRatio: 0.30, StackFrac: 0.97,
			Instructions: 20_000_000, Threads: 1, makePattern: hotspot(48*kib, 192*kib, 0.95)},
		{Name: "gobmk", Class: ComputeBound, MemRatio: 0.25, StackFrac: 0.92,
			Instructions: 20_000_000, Threads: 1, makePattern: hotspot(192*kib, 768*kib, 0.90)},
		{Name: "sjeng", Class: ComputeBound, MemRatio: 0.22, StackFrac: 0.93,
			Instructions: 22_000_000, Threads: 1, makePattern: hotspot(128*kib, 384*kib, 0.92)},
	}
}

// libquantumPattern: a small reused table plus a long sequential sweep — the
// benchmark is the paper's canonical aggressor (it produces the 67% worst
// pair with mcf in §2.3.2) yet keeps enough reuse in its table to gain ~11%
// itself under a good schedule (Table 1). The sweep is sequential so the
// next-line prefetcher hides most of its own miss latency, matching the
// real program's bandwidth-bound profile.
func libquantumPattern(div uint64, _ uint64) Pattern {
	hot := scaleBytes(384*kib, div)
	return &MixPattern{
		A:       &RandomPattern{Region: hot},
		B:       &StreamPattern{Region: scaleBytes(12*mib, div)},
		AFrac:   0.35,
		BOffset: hot,
	}
}

// PARSEC returns the multi-threaded pool of §5.1.3. Every program runs four
// threads (the paper's configuration) that share a process-common region —
// the property that makes naive thread-granular interference metrics
// misleading (§3.3.4).
func PARSEC() []Profile {
	mt := func(p Profile, sharedRegion uint64, sharedFrac float64) Profile {
		p.Threads = 4
		p.SharedFrac = sharedFrac
		p.makeShared = random(sharedRegion)
		return p
	}
	return []Profile{
		mt(Profile{Name: "blackscholes", Class: ComputeBound, MemRatio: 0.25, StackFrac: 0.95,
			Instructions: 12_000_000, makePattern: hotspot(64*kib, 128*kib, 0.95)}, 256*kib, 0.20),
		mt(Profile{Name: "bodytrack", Class: Balanced, MemRatio: 0.28, StackFrac: 0.90,
			Instructions: 11_000_000, makePattern: hotspot(128*kib, 512*kib, 0.90)}, 512*kib, 0.30),
		mt(Profile{Name: "canneal", Class: CacheHungry, MemRatio: 0.35, StackFrac: 0.60,
			Instructions: 7_000_000, makePattern: random(768 * kib)}, 1*mib, 0.50),
		mt(Profile{Name: "dedup", Class: Balanced, MemRatio: 0.30, StackFrac: 0.80,
			Instructions: 10_000_000, makePattern: hotspot(256*kib, 1*mib, 0.85)}, 1*mib, 0.40),
		mt(Profile{Name: "ferret", Class: CacheHungry, MemRatio: 0.32, StackFrac: 0.70,
			Instructions: 8_000_000, makePattern: hotspot(512*kib, 1536*kib, 0.82)}, 1*mib, 0.40),
		mt(Profile{Name: "fluidanimate", Class: Balanced, MemRatio: 0.28, StackFrac: 0.85,
			Instructions: 10_000_000, makePattern: hotspot(256*kib, 768*kib, 0.90)}, 768*kib, 0.35),
		mt(Profile{Name: "streamcluster", Class: Streaming, MemRatio: 0.35, StackFrac: 0.50,
			Instructions: 6_000_000, makePattern: stream(2 * mib)}, 512*kib, 0.20),
		mt(Profile{Name: "swaptions", Class: ComputeBound, MemRatio: 0.20, StackFrac: 0.96,
			Instructions: 14_000_000, makePattern: hotspot(32*kib, 96*kib, 0.97)}, 128*kib, 0.10),
	}
}

// ByName returns the profile with the given name from either pool.
func ByName(name string) (Profile, error) {
	for _, p := range append(SPEC2006(), PARSEC()...) {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names returns the sorted names of the given pool.
func Names(pool []Profile) []string {
	out := make([]string, len(pool))
	for i, p := range pool {
		out[i] = p.Name
	}
	sort.Strings(out)
	return out
}
