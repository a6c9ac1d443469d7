package bloom

import (
	"encoding"
	"testing"
	"testing/quick"

	"symbiosched/internal/bitvec"
)

var (
	_ encoding.BinaryMarshaler   = (*Signature)(nil)
	_ encoding.BinaryUnmarshaler = (*Signature)(nil)
)

func TestSignatureCodecRoundTrip(t *testing.T) {
	sig := &Signature{
		LastCore:  3,
		Occupancy: 1234,
		Symbiosis: []int{0, 7, 99999, 42},
		RBV:       bitvec.FromIndices(130, 0, 64, 129),
	}
	data, err := sig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Signature
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.LastCore != sig.LastCore || got.Occupancy != sig.Occupancy {
		t.Fatalf("round trip: %+v", got)
	}
	if len(got.Symbiosis) != 4 || got.Symbiosis[2] != 99999 {
		t.Fatalf("symbiosis = %v", got.Symbiosis)
	}
	if !got.RBV.Equal(sig.RBV) {
		t.Fatal("RBV mismatch")
	}
}

func TestSignatureCodecNilRBV(t *testing.T) {
	sig := &Signature{LastCore: 1, Occupancy: 5, Symbiosis: []int{1, 2}}
	data, err := sig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Signature
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.RBV != nil {
		t.Fatal("nil RBV decoded as non-nil")
	}
}

func TestSignatureCodecFromHardware(t *testing.T) {
	u := NewUnit(testConfig())
	for i := 0; i < 100; i++ {
		u.OnFill(0, uint64(i*977), i%64, i%4)
	}
	sig := u.ContextSwitch(0)
	data, err := sig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The paper budgets ~1KB per RBV transfer at full scale; our test unit
	// has 256 entries = 32 bytes of RBV plus a few header bytes.
	if len(data) > 100 {
		t.Fatalf("payload %d bytes for a 256-entry unit", len(data))
	}
	var got Signature
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Occupancy != sig.Occupancy || !got.RBV.Equal(sig.RBV) {
		t.Fatal("hardware signature round trip mismatch")
	}
}

func TestSignatureCodecErrors(t *testing.T) {
	var s Signature
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if err := s.UnmarshalBinary([]byte{99}); err == nil {
		t.Fatal("unknown version accepted")
	}
	if err := s.UnmarshalBinary([]byte{1}); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Valid prefix with trailing garbage.
	good, _ := (&Signature{Symbiosis: []int{1}}).MarshalBinary()
	if err := s.UnmarshalBinary(append(good, 0xff)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Truncated RBV words.
	withRBV, _ := (&Signature{RBV: bitvec.New(128)}).MarshalBinary()
	if err := s.UnmarshalBinary(withRBV[:len(withRBV)-3]); err == nil {
		t.Fatal("truncated RBV accepted")
	}
}

func TestSignatureCodecQuick(t *testing.T) {
	f := func(core uint8, occ uint16, sym []int16, rbvBits []uint16) bool {
		sig := &Signature{LastCore: int(core), Occupancy: int(occ)}
		for _, v := range sym {
			sig.Symbiosis = append(sig.Symbiosis, int(v))
		}
		if len(rbvBits) > 0 {
			sig.RBV = bitvec.New(1 << 12)
			for _, b := range rbvBits {
				sig.RBV.Set(int(b) % (1 << 12))
			}
		}
		data, err := sig.MarshalBinary()
		if err != nil {
			return false
		}
		var got Signature
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		if got.LastCore != sig.LastCore || got.Occupancy != sig.Occupancy {
			return false
		}
		if len(got.Symbiosis) != len(sig.Symbiosis) {
			return false
		}
		for i := range sig.Symbiosis {
			if got.Symbiosis[i] != sig.Symbiosis[i] {
				return false
			}
		}
		if (got.RBV == nil) != (sig.RBV == nil) {
			return false
		}
		return sig.RBV == nil || got.RBV.Equal(sig.RBV)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSignatureCodecLazyMaterialization pins the wire format against the lazy
// capture: a signature serialized before it was ever read must decode with
// symbiosis/overlap identical to one serialized after an explicit read, and
// both must match an eager twin (Marshal force-materializes, so the payload
// carries concrete values, never unmaterialized zeros).
func TestSignatureCodecLazyMaterialization(t *testing.T) {
	cfg := lazyTestConfig()
	ul, ue := NewUnit(cfg), NewUnit(cfg)
	feed := func(u *Unit) {
		for i := 0; i < 50; i++ {
			u.OnFill(i%4, uint64(i*131), i%64, i%4)
		}
	}
	feed(ul)
	feed(ue)
	lz := ul.ContextSwitchInto(2, nil) // never read before marshal
	eg := ue.ContextSwitchEagerInto(2, nil)

	// Mutate the filters so an unfrozen lazy read here would see the wrong
	// contents, then serialize the still-unmaterialized record.
	ul.OnFill(1, 99991, 7, 1)
	ul.OnFill(3, 99993, 9, 3)
	pre, err := lz.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	lz.Materialize()
	post, err := lz.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var a, b Signature
	if err := a.UnmarshalBinary(pre); err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalBinary(post); err != nil {
		t.Fatal(err)
	}
	for _, got := range []*Signature{&a, &b} {
		if got.LastCore != eg.LastCore || got.Occupancy != eg.Occupancy {
			t.Fatalf("decoded core/occupancy (%d,%d), eager (%d,%d)",
				got.LastCore, got.Occupancy, eg.LastCore, eg.Occupancy)
		}
		for j := range eg.Symbiosis {
			if got.Symbiosis[j] != eg.Symbiosis[j] || got.Overlap[j] != eg.Overlap[j] {
				t.Fatalf("decoded sym/ov core %d = (%d,%d), eager (%d,%d)",
					j, got.Symbiosis[j], got.Overlap[j], eg.Symbiosis[j], eg.Overlap[j])
			}
		}
		if !got.RBV.Equal(eg.RBV) {
			t.Fatal("decoded RBV differs from eager twin")
		}
	}
}
