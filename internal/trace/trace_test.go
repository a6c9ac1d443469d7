package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"symbiosched/internal/workload"
)

// roundTrip encodes refs in the v1 format, imports them with Compile and
// expands the result back into one Ref per instruction.
func roundTrip(t *testing.T, refs []workload.Ref) []workload.Ref {
	t.Helper()
	ct, err := Compile(bytes.NewReader(encode(t, refs)))
	if err != nil {
		t.Fatal(err)
	}
	return flatten(ct)
}

func TestRoundTripBasic(t *testing.T) {
	refs := []workload.Ref{
		{},
		{Addr: 0x1000, Mem: true},
		{},
		{},
		{Addr: 0x1040, Mem: true},
		{Addr: 0x0fc0, Mem: true}, // negative delta
		{},
	}
	got := roundTrip(t, refs)
	if len(got) != len(refs) {
		t.Fatalf("got %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		wantAddr := refs[i].Addr &^ 63 // codec is line-granular
		if got[i].Mem != refs[i].Mem || (refs[i].Mem && got[i].Addr != wantAddr) {
			t.Fatalf("ref %d: got %+v, want mem=%v addr=%#x", i, got[i], refs[i].Mem, wantAddr)
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	got := roundTrip(t, nil)
	if len(got) != 0 {
		t.Fatalf("empty trace decoded to %d refs", len(got))
	}
}

func TestRoundTripComputeOnly(t *testing.T) {
	refs := make([]workload.Ref, 100)
	got := roundTrip(t, refs)
	if len(got) != 100 {
		t.Fatalf("compute-only trace decoded to %d refs", len(got))
	}
	for _, r := range got {
		if r.Mem {
			t.Fatal("compute op decoded as memory op")
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Compile(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Compile(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	full := encode(t, []workload.Ref{{Addr: 4096, Mem: true}})
	// Chop the last byte: the varint record is torn.
	if _, err := Compile(bytes.NewReader(full[:len(full)-1])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestCaptureFromGenerator(t *testing.T) {
	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	ct := CaptureRuns(p.NewThreads(1, 7, 64)[0], 10000)
	refs := flatten(ct)
	if len(refs) != 10000 {
		t.Fatalf("captured %d refs", len(refs))
	}
	// The capture must match a fresh generator's stream (line-granular).
	gen2 := p.NewThreads(1, 7, 64)[0]
	for i, r := range refs {
		want := gen2.Next()
		if r.Mem != want.Mem || (want.Mem && r.Addr != want.Addr&^63) {
			t.Fatalf("ref %d mismatch: %+v vs %+v", i, r, want)
		}
	}
}

func TestReplayLooping(t *testing.T) {
	refs := []workload.Ref{
		{Addr: 64, Mem: true},
		{},
		{Addr: 128, Mem: true},
	}
	ct := runsOf(refs)
	rp := NewRunReplay(ct, true, 0)
	for round := 0; round < 3; round++ {
		for i := range refs {
			if got := rp.Next(); got != refs[i] {
				t.Fatalf("round %d ref %d: %+v", round, i, got)
			}
		}
	}
	flat := NewRunReplay(ct, false, 0)
	for range refs {
		flat.Next()
	}
	if r := flat.Next(); r.Mem {
		t.Fatal("exhausted non-looping replay emitted a memory op")
	}
	empty := NewRunReplay(NewCompiled(nil, 0), true, 0)
	if r := empty.Next(); r.Mem {
		t.Fatal("empty replay emitted a memory op")
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(ops []uint32) bool {
		refs := make([]workload.Ref, len(ops))
		for i, op := range ops {
			if op%3 == 0 {
				refs[i] = workload.Ref{Addr: uint64(op) << 6, Mem: true}
			}
		}
		var buf bytes.Buffer
		if writeV1(&buf, runsOf(refs)) != nil {
			return false
		}
		ct, err := Compile(&buf)
		if err != nil {
			return false
		}
		got := flatten(ct)
		if len(got) != len(refs) {
			return false
		}
		for i := range refs {
			if got[i] != refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCompression: the framed container makes a strided stream with small
// deltas cost only a few bytes per memory reference on disk, against the
// raw container's 16.
func TestCompression(t *testing.T) {
	p := &workload.StreamPattern{Region: 1 << 20}
	gen := workload.NewGenerator(workload.GeneratorConfig{Pattern: p, MemRatio: 0.25, Seed: 1})
	ct := CaptureRuns(gen, 100000)
	var buf bytes.Buffer
	if err := WriteCompiledFrames(&buf, ct, 0, 1); err != nil {
		t.Fatal(err)
	}
	bytesPerRef := float64(buf.Len()) / float64(ct.MemRefs())
	if bytesPerRef > 4 {
		t.Fatalf("framed container too fat: %.1f bytes per memory reference", bytesPerRef)
	}
}

func TestReaderStreaming(t *testing.T) {
	tr := newReader(bytes.NewReader(encode(t, []workload.Ref{{Addr: 64, Mem: true}})))
	if _, _, _, err := tr.nextRun(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tr.nextRun(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}
