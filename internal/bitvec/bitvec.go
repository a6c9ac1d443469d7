// Package bitvec provides dense, fixed-length bit vectors and the small
// boolean algebra the Bloom-filter signature hardware is built from.
//
// The signature infrastructure of the paper manipulates three kinds of
// bitvectors — Core Filters (CF), Last Filters (LF) and Running Bit Vectors
// (RBV) — with four operations: set/clear of individual bits, the implication
// combination RBV = ¬(CF → LF) = CF ∧ ¬LF, the XOR used by the symbiosis
// metric, and population count. All of those are provided here on a compact
// []uint64 representation so that a 64K-entry filter costs 8 KiB and the
// per-context-switch operations compile to a handful of word ops per cache
// line worth of filter, mirroring the "parallel bitwise XOR gates" cost
// argument in §5.4 of the paper.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length dense bit vector. The zero value is an empty
// vector of length 0; use New to create a sized vector.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed Vector with n bits. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// check panics if i is out of range.
func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is 1.
func (v *Vector) Test(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Reset zeroes every bit, keeping the length.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// PopCount returns the number of 1 bits. This is the "occupancy weight" of a
// filter in the paper's terminology.
func (v *Vector) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	w := New(v.n)
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of src. The lengths must match.
func (v *Vector) CopyFrom(src *Vector) {
	v.mustMatch(src)
	copy(v.words, src.words)
}

func (v *Vector) mustMatch(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, o.n))
	}
}

// AndNot stores a ∧ ¬b into v. This is the paper's RBV combination:
// RBV = ¬(CF → LF) = CF ∧ ¬LF, with a=CF and b=LF. All three may alias.
func (v *Vector) AndNot(a, b *Vector) {
	a.mustMatch(b)
	v.mustMatch(a)
	for i := range v.words {
		v.words[i] = a.words[i] &^ b.words[i]
	}
}

// AndNotCmp stores a ∧ ¬b into v like AndNot, and in the same pass reports
// whether v's previous contents differed from the result and the population
// count of the result. This is the lazy signature capture's RBV kernel: one
// traversal replaces AndNot + Equal + PopCount, and unchanged words are not
// rewritten (no dirtied cache lines when the RBV is stable across switches).
// v must not alias a or b.
func (v *Vector) AndNotCmp(a, b *Vector) (changed bool, pop int) {
	a.mustMatch(b)
	v.mustMatch(a)
	for i := range v.words {
		w := a.words[i] &^ b.words[i]
		if v.words[i] != w {
			changed = true
			v.words[i] = w
		}
		pop += bits.OnesCount64(w)
	}
	return changed, pop
}

// XorCount returns popcount(v ⊕ o) without allocating. This is the paper's
// symbiosis metric between an RBV and a Core Filter.
func (v *Vector) XorCount(o *Vector) int {
	v.mustMatch(o)
	c := 0
	for i, w := range v.words {
		c += bits.OnesCount64(w ^ o.words[i])
	}
	return c
}

// XorAndCount returns popcount(v ⊕ o) and popcount(v ∧ o) in a single pass —
// the fused symbiosis/overlap kernel. A context-switch signature needs both
// metrics against the same core filter, and computing them together halves
// the memory traffic of two separate popcount passes. The word loop is
// 4-way unrolled: each iteration loads both operand words once and feeds the
// XOR and AND popcounts from the same registers.
func (v *Vector) XorAndCount(o *Vector) (xor, and int) {
	v.mustMatch(o)
	a, b := v.words, o.words
	n := len(a)
	_ = b[:n] // one bounds check for the whole loop
	i := 0
	for ; i+4 <= n; i += 4 {
		w0, w1, w2, w3 := a[i], a[i+1], a[i+2], a[i+3]
		x0, x1, x2, x3 := b[i], b[i+1], b[i+2], b[i+3]
		xor += bits.OnesCount64(w0^x0) + bits.OnesCount64(w1^x1) +
			bits.OnesCount64(w2^x2) + bits.OnesCount64(w3^x3)
		and += bits.OnesCount64(w0&x0) + bits.OnesCount64(w1&x1) +
			bits.OnesCount64(w2&x2) + bits.OnesCount64(w3&x3)
	}
	for ; i < n; i++ {
		xor += bits.OnesCount64(a[i] ^ b[i])
		and += bits.OnesCount64(a[i] & b[i])
	}
	return xor, and
}

// Equal reports whether v and o have identical length and contents.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Any reports whether at least one bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// String renders the vector as a compact 0/1 string (bit 0 first), capped at
// 256 bits with an ellipsis, for debugging output.
func (v *Vector) String() string {
	var sb strings.Builder
	n := v.n
	truncated := false
	if n > 256 {
		n = 256
		truncated = true
	}
	sb.Grow(n + 16)
	for i := 0; i < n; i++ {
		if v.Test(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if truncated {
		fmt.Fprintf(&sb, "…(+%d)", v.n-256)
	}
	return sb.String()
}
