// Package bloom implements the paper's memory-footprint signature hardware:
// the split counting Bloom filter of §3.1 over L2 line addresses (one shared
// counter array plus per-core Core Filters (CF) and Last Filters (LF)),
// Running Bit Vector (RBV) extraction at context switches, and the
// occupancy-weight and symbiosis metrics consumed by the resource-allocation
// algorithms.
package bloom

import (
	"fmt"
	"math/bits"
)

// HashKind selects one of the four hash functions evaluated in §5.3 / Fig 14
// of the paper.
type HashKind int

const (
	// HashXOR folds the line address into the index width by XORing
	// index-wide chunks. The paper's recommended function: performance
	// indistinguishable from the alternatives at minimal hardware cost.
	HashXOR HashKind = iota
	// HashXORInvRev is HashXOR followed by a bitwise inversion and bit
	// reversal of the index.
	HashXORInvRev
	// HashModulo reduces the line address modulo the filter size.
	HashModulo
	// HashPresence is the degenerate one-to-one mapping between filter bits
	// and cache frames (set,way). It is not an address hash at all: the
	// filter becomes an exact per-core footprint of the cache, which the
	// paper shows saturates and conveys no scheduling signal (Fig 14).
	HashPresence
)

// String returns the paper's name for the hash function.
func (k HashKind) String() string {
	switch k {
	case HashXOR:
		return "xor"
	case HashXORInvRev:
		return "xor-inv-rev"
	case HashModulo:
		return "modulo"
	case HashPresence:
		return "presence"
	default:
		return fmt.Sprintf("HashKind(%d)", int(k))
	}
}

// Hasher maps a cache line address to a filter index in [0, Entries).
// Implementations must be pure functions of the address.
type Hasher interface {
	// Index returns the filter index for the given line address (the block
	// address with the line-offset bits already stripped).
	Index(lineAddr uint64) int
	// Entries returns the size of the index space.
	Entries() int
}

// xorFold folds a 64-bit line address into idxBits by XOR of chunks.
type xorFold struct {
	idxBits uint
	mask    uint64
}

func newXORFold(entries int) xorFold {
	b := uint(bits.TrailingZeros(uint(entries)))
	return xorFold{idxBits: b, mask: uint64(entries - 1)}
}

func (h xorFold) Index(lineAddr uint64) int {
	v := lineAddr
	idx := uint64(0)
	for v != 0 {
		idx ^= v & h.mask
		v >>= h.idxBits
	}
	return int(idx)
}

func (h xorFold) Entries() int { return int(h.mask) + 1 }

// xorInvRev is xorFold with the index bitwise inverted and bit-reversed.
type xorInvRev struct{ xorFold }

func (h xorInvRev) Index(lineAddr uint64) int {
	idx := uint64(h.xorFold.Index(lineAddr))
	idx = ^idx & h.mask
	idx = bits.Reverse64(idx) >> (64 - h.idxBits)
	return int(idx)
}

// modulo reduces the line address modulo the entry count.
type modulo struct{ entries int }

func (h modulo) Index(lineAddr uint64) int { return int(lineAddr % uint64(h.entries)) }
func (h modulo) Entries() int              { return h.entries }

// NewHasher constructs the Hasher for kind over a power-of-two entry count.
// HashPresence has no address hash; requesting it returns nil (the signature
// unit indexes presence filters by cache frame instead).
func NewHasher(kind HashKind, entries int) Hasher {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("bloom: entries %d must be a positive power of two", entries))
	}
	switch kind {
	case HashXOR:
		return newXORFold(entries)
	case HashXORInvRev:
		return xorInvRev{newXORFold(entries)}
	case HashModulo:
		return modulo{entries}
	case HashPresence:
		return nil
	default:
		panic(fmt.Sprintf("bloom: unknown hash kind %d", int(kind)))
	}
}
