package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len() = %d, want %d", v.Len(), n)
		}
		if v.PopCount() != 0 {
			t.Fatalf("new vector of %d bits has popcount %d", n, v.PopCount())
		}
		if v.Any() {
			t.Fatalf("new vector of %d bits reports Any()", n)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetClearTest(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		if v.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		v.Set(i)
		if !v.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := v.PopCount(); got != 7 {
		t.Fatalf("PopCount = %d, want 7", got)
	}
	v.Clear(64)
	if v.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := v.PopCount(); got != 6 {
		t.Fatalf("PopCount after Clear = %d, want 6", got)
	}
}

func TestSetIdempotent(t *testing.T) {
	v := New(10)
	v.Set(3)
	v.Set(3)
	if got := v.PopCount(); got != 1 {
		t.Fatalf("PopCount after double Set = %d, want 1", got)
	}
	v.Clear(3)
	v.Clear(3)
	if got := v.PopCount(); got != 0 {
		t.Fatalf("PopCount after double Clear = %d, want 0", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(8)
	for _, f := range []func(){
		func() { v.Set(8) },
		func() { v.Set(-1) },
		func() { v.Clear(8) },
		func() { v.Test(100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestReset(t *testing.T) {
	v := fromIndices(100, 0, 50, 99)
	v.Reset()
	if v.Any() {
		t.Fatal("vector not empty after Reset")
	}
	if v.Len() != 100 {
		t.Fatalf("Reset changed length to %d", v.Len())
	}
}

func TestCloneIndependence(t *testing.T) {
	v := fromIndices(70, 1, 68)
	w := v.Clone()
	if !v.Equal(w) {
		t.Fatal("clone not equal to original")
	}
	w.Set(2)
	if v.Test(2) {
		t.Fatal("mutating clone mutated original")
	}
}

func TestCopyFrom(t *testing.T) {
	v := New(70)
	src := fromIndices(70, 3, 69)
	v.CopyFrom(src)
	if !v.Equal(src) {
		t.Fatal("CopyFrom did not copy contents")
	}
}

func TestCopyFromLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	New(10).CopyFrom(New(11))
}

func TestBooleanOps(t *testing.T) {
	a := fromIndices(130, 0, 1, 64, 129)
	b := fromIndices(130, 1, 2, 64, 128)

	andNot := New(130)
	andNot.AndNot(a, b)
	if got, want := indices(andNot), []int{0, 129}; !equalInts(got, want) {
		t.Fatalf("AndNot = %v, want %v", got, want)
	}
}

// TestRBVIdentity checks the paper's RBV construction: RBV = CF ∧ ¬LF equals
// ¬(LF ∨ ¬CF), the "inverse of implication" formulation in §3.1.
func TestRBVIdentity(t *testing.T) {
	cf := fromIndices(128, 1, 2, 3, 64, 100)
	lf := fromIndices(128, 2, 64, 99)

	rbv := New(128)
	rbv.AndNot(cf, lf)

	// ¬(CF → LF) = ¬(¬CF ∨ LF), bit by bit.
	for i := 0; i < 128; i++ {
		if want := !(!cf.Test(i) || lf.Test(i)); rbv.Test(i) != want {
			t.Fatalf("bit %d: AndNot RBV %v, implication RBV %v", i, rbv.Test(i), want)
		}
	}
	if got, want := indices(rbv), []int{1, 3, 100}; !equalInts(got, want) {
		t.Fatalf("RBV = %v, want %v", got, want)
	}
}

func TestXorCountMatchesExplicitXor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		want := 0
		for i := 0; i < n; i++ {
			if a.Test(i) != b.Test(i) {
				want++
			}
		}
		if got := a.XorCount(b); got != want {
			t.Fatalf("XorCount = %d, want %d at n=%d", got, want, n)
		}
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if New(10).Equal(New(11)) {
		t.Fatal("vectors of different length compare equal")
	}
}

func TestStringSmall(t *testing.T) {
	v := fromIndices(4, 0, 2)
	if got := v.String(); got != "1010" {
		t.Fatalf("String = %q, want %q", got, "1010")
	}
}

func TestStringTruncates(t *testing.T) {
	v := New(300)
	s := v.String()
	if len(s) <= 256 {
		t.Fatalf("truncated string %q lacks ellipsis suffix", s)
	}
}

// Property: popcount(a⊕b) = popcount(a) + popcount(b) - 2*popcount(a∧b).
func TestXorPopcountIdentityQuick(t *testing.T) {
	f := func(aw, bw []uint64) bool {
		n := len(aw)
		if len(bw) < n {
			n = len(bw)
		}
		n *= 64
		if n == 0 {
			return true
		}
		a, b := New(n), New(n)
		copy(a.words, aw)
		copy(b.words, bw)
		return a.XorCount(b) == a.PopCount()+b.PopCount()-2*andCount(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AndNot(a, b) sets exactly the bits in a minus those in b.
func TestAndNotSemanticsQuick(t *testing.T) {
	f := func(aw, bw []uint64) bool {
		n := len(aw)
		if len(bw) < n {
			n = len(bw)
		}
		n *= 64
		if n == 0 {
			return true
		}
		a, b := New(n), New(n)
		copy(a.words, aw)
		copy(b.words, bw)
		out := New(n)
		out.AndNot(a, b)
		for i := 0; i < n; i++ {
			if out.Test(i) != (a.Test(i) && !b.Test(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAliasedOps(t *testing.T) {
	a := fromIndices(80, 1, 2, 3)
	b := fromIndices(80, 2, 3, 4)
	a.AndNot(a, b) // aliased destination
	if got, want := indices(a), []int{1}; !equalInts(got, want) {
		t.Fatalf("aliased AndNot = %v, want %v", got, want)
	}
	c := fromIndices(80, 9, 70)
	c.AndNot(c, c) // fully aliased: x ∧ ¬x = 0
	if c.Any() {
		t.Fatal("x AndNot x is not empty")
	}
}

// fromIndices returns a Vector of length n with exactly the given bit
// positions set.
func fromIndices(n int, idx ...int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// indices returns the positions of v's set bits in increasing order.
func indices(v *Vector) []int {
	var out []int
	for i := 0; i < v.Len(); i++ {
		if v.Test(i) {
			out = append(out, i)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkXorCount64K(b *testing.B) {
	v := New(65536)
	w := New(65536)
	for i := 0; i < 65536; i += 7 {
		v.Set(i)
	}
	for i := 0; i < 65536; i += 5 {
		w.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.XorCount(w)
	}
}
