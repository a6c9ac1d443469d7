package workload

import "math/bits"

// Ref is one dynamic instruction emitted by a Generator: either a compute
// operation (Mem false) or a memory access at Addr.
type Ref struct {
	Addr uint64
	Mem  bool
}

// RefSource is anything that produces an instruction stream: synthetic
// generators, trace replays, or custom models. Any RefSource can drive an
// engine thread (kernel.SourceProcess adapts it with AsRunSource), so
// captured (or externally produced) traces can substitute for the synthetic
// workloads.
type RefSource interface {
	Next() Ref
}

// RunSource is the bulk form of RefSource: NextRun advances the stream by up
// to limit instructions in one call, returning the length of the compute run
// and the memory operation that ends it (see Generator.NextRun for the exact
// contract — skipped+1 ≤ limit instructions consumed when mem is true,
// exactly limit compute instructions when mem is false — and in every case
// exactly the instructions that as many Next calls would consume). The
// engine's access loop consumes every thread through NextRun, paying one
// interface call per memory operation instead of one per instruction;
// Generator and the trace package's compiled/streaming replays implement it
// natively, and AsRunSource adapts any other RefSource.
type RunSource interface {
	RefSource
	NextRun(limit int) (skipped int, addr uint64, mem bool)
}

// AsRunSource returns src as a RunSource: src itself when it already is one,
// otherwise src wrapped in an adapter whose NextRun steps Next one
// instruction at a time. The adapter forwards Rewind to src (reporting false
// when src is not a Rewinder), so wrapping changes neither the stream nor
// whether a workload can be reset in place.
func AsRunSource(src RefSource) RunSource {
	if rs, ok := src.(RunSource); ok {
		return rs
	}
	return refRuns{src}
}

// refRuns is the RunSource view of a Next-only source.
type refRuns struct{ RefSource }

func (r refRuns) NextRun(limit int) (skipped int, addr uint64, mem bool) {
	for ; skipped < limit; skipped++ {
		if ref := r.Next(); ref.Mem {
			return skipped, ref.Addr, true
		}
	}
	return skipped, 0, false
}

func (r refRuns) Rewind() bool {
	rw, ok := r.RefSource.(Rewinder)
	return ok && rw.Rewind()
}

// Rewinder is implemented by instruction sources that can rewind to their
// initial state in place. Rewind reports whether the rewind succeeded; a
// false return means the source cannot reproduce its stream (for example a
// streaming trace whose underlying reader failed) and the caller must
// rebuild the workload instead of reusing it. kernel.Thread.Reset consults
// this interface, which is what lets trace-driven workloads ride the
// experiments arena cache like synthetic ones.
type Rewinder interface {
	Rewind() bool
}

// Generator emits the instruction stream of one thread. Memory operations
// are interleaved deterministically at the profile's memory ratio using a
// fixed-point fractional accumulator (an integer Bresenham walk), and
// addresses come from the thread's private pattern or (for multi-threaded
// processes) the process-shared pattern.
//
// Fixed-point note (PR 1): the original implementation accumulated a
// float64 (`acc += memRatio; emit when acc ≥ 1`). The rewrite accumulates
// the exact Q53 numerator of the float64 ratio (ratio·2^53 is an exact
// integer for any float64 in (0,1]), so the emission sequence is the exact
// Bresenham interleaving of the true rational ratio with zero accumulated
// rounding error. It can differ from the old float64 sequence only at the
// rare steps where float64 addition rounded — a deliberate determinism
// change; all paper-shape contracts (class bounds, correlations,
// improvement orderings) were re-verified after the switch (see
// EXPERIMENTS.md, "Determinism and the fixed-point generator").
type Generator struct {
	pattern      Pattern
	shared       Pattern // nil for single-threaded processes
	sharedThresh Threshold
	hasShared    bool
	memRatio     float64
	ratioQ53     uint64 // memRatio · 2^53, exact
	accQ53       uint64 // fractional accumulator in Q53
	recipM       uint64 // ⌈2^108/ratioQ53⌉: exact-reciprocal magic (recipOK)
	recipOK      bool   // ratioQ53 > 2^44, so recipM fits and the trick is exact
	base         uint64 // private-region base address (address-space separation)
	sharedBase   uint64 // shared-region base address
	rng          *Rand
	seed         uint64 // initial RNG seed, kept so Reset can rewind the stream

	// Flattened stackedPattern fast path (see NewGenerator): when the
	// private pattern is a stackedPattern, the stack draw — the majority of
	// address draws for high-StackFrac profiles — is inlined here so it
	// costs one RNG draw and a multiply instead of two interface calls and
	// two draws: the top 32 bits of a single draw decide stack-vs-body
	// (Q32 threshold) and the low 32 bits select the stack line.
	hasStack      bool
	stackThresh32 uint64 // ⌈StackFrac·2^32⌉, compared against the draw's top 32 bits
	stackLines    uint64
	stackBase     uint64  // base + stackOff
	body          Pattern // the stacked pattern's body component
}

// oneQ53 is 1.0 in the generator's Q53 fixed-point domain.
const oneQ53 = uint64(1) << 53

// GeneratorConfig assembles a Generator.
type GeneratorConfig struct {
	Pattern    Pattern
	Shared     Pattern // optional process-shared pattern
	SharedFrac float64 // fraction of memory ops that go to the shared region
	MemRatio   float64 // memory operations per instruction, in (0, 1]
	Base       uint64
	SharedBase uint64
	Seed       uint64
}

// NewGenerator builds a thread instruction generator.
func NewGenerator(cfg GeneratorConfig) *Generator {
	if cfg.Pattern == nil {
		panic("workload: generator needs a pattern")
	}
	if cfg.MemRatio <= 0 || cfg.MemRatio > 1 {
		panic("workload: memory ratio must be in (0,1]")
	}
	g := &Generator{
		pattern:      cfg.Pattern,
		shared:       cfg.Shared,
		sharedThresh: NewThreshold(cfg.SharedFrac),
		hasShared:    cfg.Shared != nil,
		memRatio:     cfg.MemRatio,
		ratioQ53:     uint64(cfg.MemRatio * (1 << 53)), // exact for float64 ∈ (0,1]
		base:         cfg.Base,
		sharedBase:   cfg.SharedBase,
		rng:          NewRand(cfg.Seed),
		seed:         cfg.Seed,
	}
	// Precompute the exact reciprocal of the (generator-constant) Bresenham
	// divisor so NextRun's closed-form run length is a multiply instead of a
	// hardware divide. M = ⌈2^108/d⌉ makes floor(n·M/2^108) = floor(n/d)
	// exactly for every n < 2^54 (Granlund–Montgomery style): writing
	// M·d = 2^108 + e with 0 ≤ e < d, the error term n·e/(d·2^108) is
	// non-negative and < 2^54/2^108 = 2^-54, while a non-integer n/d sits at
	// least 1/d ≥ 2^-53 below the next integer — the floor cannot move.
	// M fits in 64 bits only for d > 2^44 (memRatio > 2^-9; every profile
	// qualifies); smaller ratios keep the divide.
	if d := g.ratioQ53; d > 1<<44 {
		q, r := bits.Div64(1<<44, 0, d) // floor(2^108 / d), remainder
		if r != 0 {
			q++
		}
		g.recipM = q
		g.recipOK = true
	}
	// Devirtualize the stackedPattern composition: its stack component is
	// always a uniform RandomPattern, so the generator performs the
	// threshold decision and the line draw inline from a single RNG draw —
	// no interface dispatch on the ~StackFrac majority path. The Q32
	// threshold is ⌈frac·2^32⌉ = ⌈⌈frac·2^53⌉/2^21⌉ (exact: ceil of a ceil
	// through a power-of-two divisor), so the decision bias is < 2^-32.
	// This is a documented determinism change relative to the two-draw
	// interface path (see EXPERIMENTS.md, "Determinism and the fixed-point
	// generator"): the stack decision drops from 53- to 32-bit resolution
	// and the body stream sees a different (one draw per stack op shorter)
	// RNG sequence; all paper-shape contracts were re-verified.
	if sp, ok := cfg.Pattern.(*stackedPattern); ok && sp.stackLines > 0 {
		g.hasStack = true
		g.stackThresh32 = (uint64(sp.stackThresh) + 1<<21 - 1) >> 21
		g.stackLines = sp.stackLines
		g.stackBase = cfg.Base + sp.stackOff
		g.body = sp.body
	}
	return g
}

// Next returns the next instruction. The memory/compute interleaving is a
// pure integer Bresenham accumulator; the shared-region draw compares raw
// random bits against a precomputed threshold (no floating point on the
// path).
func (g *Generator) Next() Ref {
	acc := g.accQ53 + g.ratioQ53
	if acc < oneQ53 {
		g.accQ53 = acc
		return Ref{}
	}
	g.accQ53 = acc - oneQ53
	if g.hasShared && g.rng.Below(g.sharedThresh) {
		return Ref{Addr: g.sharedBase + g.shared.Next(g.rng), Mem: true}
	}
	return Ref{Addr: g.privateAddr(), Mem: true}
}

// privateAddr draws one private-region address. The flattened stack path
// spends a single RNG draw: the top 32 bits decide stack-vs-body against
// the Q32 threshold, and on a stack access the low 32 bits pick the line
// (multiply-shift reduction, disjoint bit ranges so decision and address
// are uncorrelated). Body accesses fall through to the pattern interface
// with the RNG positioned after that one draw.
func (g *Generator) privateAddr() uint64 {
	if g.hasStack {
		x := g.rng.Uint64()
		if x>>32 < g.stackThresh32 {
			return g.stackBase + ((x&0xFFFFFFFF)*g.stackLines>>32)*64
		}
		return g.base + g.body.Next(g.rng)
	}
	return g.base + g.pattern.Next(g.rng)
}

// NextRun advances the stream by up to limit instructions in one call and
// is the engine's batch entry point: a run of compute instructions and the
// memory operation that ends it are produced together, so the simulator
// pays one call per memory operation instead of one call per instruction.
//
// It returns the number of compute instructions consumed (skipped) and, if
// mem is true, the address of the memory operation that follows them — in
// which case skipped+1 ≤ limit instructions were consumed. If no memory
// operation falls within limit instructions, exactly limit compute
// instructions are consumed and mem is false (the accumulator state carries
// over, so batch boundaries do not perturb the emission sequence).
//
// The emitted instruction sequence is bit-identical to calling Next()
// limit times, but the cost is O(1) per call rather than O(limit): the
// number of compute instructions before the next memory operation is the
// closed-form solution of the accumulator recurrence (smallest k with
// acc + k·ratio ≥ 2^53), so the simulator's work scales with the number of
// memory operations, not the number of instructions. Memory-intense streams
// (k = 1) skip the division entirely. (An iterative walk of the
// accumulator for small k was measured and is slower: the run lengths are
// data-random, so the loop branch mispredicts, while the divide pipelines.)
//
// No intermediate quantity overflows: k ≤ ⌈2^53/ratio⌉ and k·ratio <
// 2^53 + ratio ≤ 2^54, and limit·ratio ≤ 2^61 for any batch ≤ 256.
func (g *Generator) NextRun(limit int) (skipped int, addr uint64, mem bool) {
	if limit <= 0 {
		return 0, 0, false
	}
	acc := g.accQ53
	ratio := g.ratioQ53
	if acc+ratio < oneQ53 { // k > 1: solve for the run length
		n := oneQ53 - acc + ratio - 1
		var k uint64
		if g.recipOK {
			// Exact n/ratio via the precomputed reciprocal (see
			// NewGenerator): mulhi + shift instead of a 64-bit divide on
			// every memory operation.
			hi, _ := bits.Mul64(n, g.recipM)
			k = hi >> 44
		} else {
			k = n / ratio
		}
		if k > uint64(limit) {
			g.accQ53 = acc + uint64(limit)*ratio
			return limit, 0, false
		}
		acc += (k - 1) * ratio
		skipped = int(k - 1)
	}
	g.accQ53 = acc + ratio - oneQ53
	if g.hasShared && g.rng.Below(g.sharedThresh) {
		return skipped, g.sharedBase + g.shared.Next(g.rng), true
	}
	// Manually inlined privateAddr (NextRun is too large for the compiler
	// to inline it, and the call costs more than the draw) — keep in sync.
	if g.hasStack {
		x := g.rng.Uint64()
		if x>>32 < g.stackThresh32 {
			return skipped, g.stackBase + ((x&0xFFFFFFFF)*g.stackLines>>32)*64, true
		}
		return skipped, g.base + g.body.Next(g.rng), true
	}
	return skipped, g.base + g.pattern.Next(g.rng), true
}

// Reset rewinds the generator to its just-constructed state in place: the
// RNG returns to its seed, the Bresenham accumulator to zero, and both
// patterns to their initial cursors. All allocations (including a chase
// pattern's permutation) are kept, and the subsequent instruction stream is
// bit-identical to a freshly built generator — the invariant the simulation
// arenas rely on. Any new mutable field added to Generator must be reset
// here.
func (g *Generator) Reset() {
	*g.rng = *NewRand(g.seed)
	g.accQ53 = 0
	g.pattern.Reset() // covers the flattened stack body too (same object)
	if g.shared != nil {
		g.shared.Reset()
	}
}

// MemRatio returns the configured memory-operation ratio.
func (g *Generator) MemRatio() float64 { return g.memRatio }

// Footprint returns the private pattern's footprint in bytes.
func (g *Generator) Footprint() uint64 { return g.pattern.Footprint() }
