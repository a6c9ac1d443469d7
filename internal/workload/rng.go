// Package workload provides deterministic synthetic memory-reference
// generators standing in for the SPEC CPU2006 and PARSEC programs of the
// paper's evaluation (§2.3, §4). Each benchmark profile is a parameterised
// address-pattern model (working-set size, access pattern, memory intensity)
// calibrated to the qualitative class the paper assigns the real program:
// cache-hungry (mcf, omnetpp), streaming/bandwidth-bound (libquantum,
// hmmer, milc), or compute-bound (povray, gobmk, sjeng, …).
package workload

// Rand is a splitmix64 pseudo-random generator: tiny, fast, and fully
// deterministic from its seed, so every simulation is reproducible
// bit-for-bit. (math/rand would work too; splitmix64 keeps the generator
// allocation-free and trivially copyable.)
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Threshold is a probability pre-scaled to the Q53 fixed-point domain of
// Below: comparing the generator's 53 random bits against a Threshold is
// bit-for-bit equivalent to `Float64() < frac` without the int→float
// conversion and FP compare on the hot path.
type Threshold uint64

// NewThreshold converts a probability in [0, 1] to its Q53 threshold.
//
// Exactness: Float64() = float64(x)/2^53 with x = Uint64()>>11 < 2^53, so x
// is exactly representable and the division (by a power of two) is exact.
// Hence Float64() < frac ⇔ x < frac·2^53 over the reals ⇔ x < ⌈frac·2^53⌉
// over the integers; frac·2^53 is itself exact in float64 (pure exponent
// shift), so the ceil introduces no rounding either.
func NewThreshold(frac float64) Threshold {
	if frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return Threshold(1) << 53
	}
	t := frac * (1 << 53)
	u := Threshold(t)
	if float64(u) < t {
		u++
	}
	return u
}

// Below draws 53 random bits and reports whether they fall below the
// threshold — exactly equivalent to Float64() < frac for the matching
// NewThreshold(frac), consuming one Uint64 draw either way.
func (r *Rand) Below(t Threshold) bool { return Threshold(r.Uint64()>>11) < t }
