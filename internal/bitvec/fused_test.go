package bitvec

import (
	"math/bits"
	"math/rand"
	"testing"
)

// naiveXorAndCount is the two-pass reference the fused kernel must match
// bit-for-bit: the pre-fusion implementation, kept here as the oracle.
func naiveXorAndCount(a, b *Vector) (int, int) {
	return a.XorCount(b), andCount(a, b)
}

// andCount is popcount(a ∧ b), one word at a time.
func andCount(a, b *Vector) int {
	a.mustMatch(b)
	c := 0
	for i, w := range a.words {
		c += bits.OnesCount64(w & b.words[i])
	}
	return c
}

func TestXorAndCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Lengths straddle the 4-word unroll boundary and word-multiple tails:
	// empty, sub-word, exact words, unroll multiples ±1, and a large filter.
	for _, n := range []int{0, 1, 7, 63, 64, 65, 127, 128, 255, 256, 257, 300, 1024, 16384, 16411} {
		for trial := 0; trial < 4; trial++ {
			a, b := New(n), New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					a.Set(i)
				}
				if rng.Intn(3) == 0 {
					b.Set(i)
				}
			}
			wantXor, wantAnd := naiveXorAndCount(a, b)
			gotXor, gotAnd := a.XorAndCount(b)
			if gotXor != wantXor || gotAnd != wantAnd {
				t.Fatalf("n=%d trial=%d: XorAndCount = (%d, %d), want (%d, %d)",
					n, trial, gotXor, gotAnd, wantXor, wantAnd)
			}
		}
	}
}

func TestXorAndCountLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(64).XorAndCount(New(65))
}

// FuzzXorAndCount differentially fuzzes the fused single-pass kernel against
// the naive two-pass reference. The corpus is raw word material plus a length
// remainder so the fuzzer explores non-word-multiple tails, where the zeroed
// tail bits and the unrolled loop's cleanup path interact.
func FuzzXorAndCount(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xaa}, []byte{0x0f, 0xf0, 0x55}, uint8(0))
	f.Add([]byte{}, []byte{}, uint8(17)) // length not a multiple of 64
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(63))
	f.Add(make([]byte, 40), make([]byte, 40), uint8(1)) // crosses the 4-word unroll
	f.Fuzz(func(t *testing.T, aw, bw []byte, rem uint8) {
		// Build two equal-length vectors from the byte material; rem skews the
		// bit length away from byte/word multiples.
		nb := len(aw)
		if len(bw) > nb {
			nb = len(bw)
		}
		n := nb*8 + int(rem%64)
		a, b := New(n), New(n)
		for i, by := range aw {
			for bit := 0; bit < 8; bit++ {
				if by&(1<<bit) != 0 && i*8+bit < n {
					a.Set(i*8 + bit)
				}
			}
		}
		for i, by := range bw {
			for bit := 0; bit < 8; bit++ {
				if by&(1<<bit) != 0 && i*8+bit < n {
					b.Set(i*8 + bit)
				}
			}
		}
		wantXor, wantAnd := naiveXorAndCount(a, b)
		gotXor, gotAnd := a.XorAndCount(b)
		if gotXor != wantXor || gotAnd != wantAnd {
			t.Fatalf("n=%d: fused (%d, %d) != naive (%d, %d)", n, gotXor, gotAnd, wantXor, wantAnd)
		}
	})
}

func BenchmarkXorAndCountFused(b *testing.B) {
	x, y := benchPair(16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkXor, sinkAnd = x.XorAndCount(y)
	}
}

func BenchmarkXorAndCountTwoPass(b *testing.B) {
	x, y := benchPair(16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkXor, sinkAnd = naiveXorAndCount(x, y)
	}
}

var sinkXor, sinkAnd int

func benchPair(n int) (*Vector, *Vector) {
	rng := rand.New(rand.NewSource(7))
	a, b := New(n), New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			a.Set(i)
		}
		if rng.Intn(2) == 0 {
			b.Set(i)
		}
	}
	return a, b
}
