package bloom

import (
	"testing"
	"testing/quick"
)

func TestHashKindString(t *testing.T) {
	cases := map[HashKind]string{
		HashXOR:       "xor",
		HashXORInvRev: "xor-inv-rev",
		HashModulo:    "modulo",
		HashPresence:  "presence",
		HashKind(42):  "HashKind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestNewHasherRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, -4, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHasher(XOR, %d) did not panic", n)
				}
			}()
			NewHasher(HashXOR, n)
		}()
	}
}

func TestNewHasherPresenceIsNil(t *testing.T) {
	if h := NewHasher(HashPresence, 64); h != nil {
		t.Fatal("presence hasher should be nil (frame-indexed)")
	}
}

func TestHashersInRange(t *testing.T) {
	for _, kind := range []HashKind{HashXOR, HashXORInvRev, HashModulo} {
		for _, entries := range []int{2, 64, 1024, 16384} {
			h := NewHasher(kind, entries)
			if h.Entries() != entries {
				t.Fatalf("%v: Entries = %d, want %d", kind, h.Entries(), entries)
			}
			for addr := uint64(0); addr < 10000; addr += 37 {
				idx := h.Index(addr)
				if idx < 0 || idx >= entries {
					t.Fatalf("%v(%d): Index(%#x) = %d out of range", kind, entries, addr, idx)
				}
			}
		}
	}
}

func TestHashersDeterministic(t *testing.T) {
	for _, kind := range []HashKind{HashXOR, HashXORInvRev, HashModulo} {
		h1 := NewHasher(kind, 4096)
		h2 := NewHasher(kind, 4096)
		for addr := uint64(0); addr < 5000; addr += 13 {
			if h1.Index(addr) != h2.Index(addr) {
				t.Fatalf("%v: hash not deterministic at %#x", kind, addr)
			}
		}
	}
}

// The XOR fold of an address that fits within the index width is the address
// itself — the property that makes the fold cheap in hardware.
func TestXORFoldIdentityOnSmallAddresses(t *testing.T) {
	h := NewHasher(HashXOR, 1024)
	for addr := uint64(0); addr < 1024; addr++ {
		if got := h.Index(addr); got != int(addr) {
			t.Fatalf("Index(%d) = %d, want identity", addr, got)
		}
	}
}

// Sequential line addresses (a streaming workload) must spread across the
// whole filter for every address hash — the property presence bits lack.
func TestHashersSpreadSequentialAddresses(t *testing.T) {
	const entries = 1024
	for _, kind := range []HashKind{HashXOR, HashXORInvRev, HashModulo} {
		h := NewHasher(kind, entries)
		seen := make(map[int]bool)
		for addr := uint64(0); addr < entries; addr++ {
			seen[h.Index(addr)] = true
		}
		if len(seen) != entries {
			t.Errorf("%v: %d sequential lines hit only %d/%d filter entries", kind, entries, len(seen), entries)
		}
	}
}

func TestXORInvRevDiffersFromXOR(t *testing.T) {
	x := NewHasher(HashXOR, 1024)
	r := NewHasher(HashXORInvRev, 1024)
	diff := 0
	for addr := uint64(0); addr < 1024; addr++ {
		if x.Index(addr) != r.Index(addr) {
			diff++
		}
	}
	if diff < 900 {
		t.Fatalf("xor-inv-rev matches xor on %d/1024 addresses; expected near-total difference", 1024-diff)
	}
}

func TestXORFoldUsesHighBitsQuick(t *testing.T) {
	h := NewHasher(HashXOR, 4096)
	// Flipping a high bit must flip the index (fold XORs it in).
	f := func(addr uint64) bool {
		return h.Index(addr) != h.Index(addr^(1<<40))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
