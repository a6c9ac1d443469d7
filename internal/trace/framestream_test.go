package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"symbiosched/internal/workload"
)

// framed encodes ct in the framed container with frameRuns records per
// frame.
func framed(t testing.TB, ct *CompiledTrace, frameRuns int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCompiledFrames(&buf, ct, frameRuns, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamReplayMatchesRunReplay pins the streaming replay to the compiled
// reference with 3-run frames, so every frame boundary, tail fold and loop
// wrap is crossed many times under a rotating batch limit.
func TestStreamReplayMatchesRunReplay(t *testing.T) {
	ct := captureBench(t, "libquantum", 17, 20_000)
	data := framed(t, ct, 3)
	for _, loop := range []bool{true, false} {
		rp := NewRunReplay(ct, loop, 7<<40)
		fs, err := NewFrameStreamReplay(bytes.NewReader(data), loop, 7<<40)
		if err != nil {
			t.Fatal(err)
		}
		limits := []int{1, 5, 128, 3, 977}
		for i := 0; i < 30_000; i++ {
			limit := limits[i%len(limits)]
			s1, a1, m1 := rp.NextRun(limit)
			s2, a2, m2 := fs.NextRun(limit)
			if s1 != s2 || a1 != a2 || m1 != m2 {
				t.Fatalf("loop=%v call %d: compiled (%d, %#x, %v), streaming (%d, %#x, %v)",
					loop, i, s1, a1, m1, s2, a2, m2)
			}
		}
		if fs.Err() != nil {
			t.Fatalf("loop=%v: unexpected stream error: %v", loop, fs.Err())
		}
	}
}

// TestStreamReplayBoundedMemory pins the O(frame) claim where it matters:
// steady-state replay — frame after frame, including loop wraps, which seek
// the source back and reset the inflater in place — performs zero
// allocations.
func TestStreamReplayBoundedMemory(t *testing.T) {
	ct := captureBench(t, "hmmer", 23, 50_000)
	fs, err := NewFrameStreamReplay(bytes.NewReader(framed(t, ct, 16)), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sink uint64
	allocs := testing.AllocsPerRun(20, func() {
		// Thousands of memory references per round with 16-run frames:
		// hundreds of inflates, and (at 50k instructions per lap) regular
		// loop wraps.
		for i := 0; i < 10_000; i++ {
			_, addr, _ := fs.NextRun(64)
			sink += addr
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state streaming replay allocates: %.1f allocs/run", allocs)
	}
	_ = sink
}

func TestStreamReplayRewind(t *testing.T) {
	ct := captureBench(t, "gcc", 29, 10_000)
	fs, err := NewFrameStreamReplay(bytes.NewReader(framed(t, ct, 5)), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]workload.Ref, 4_000)
	for i := range first {
		first[i] = fs.Next()
	}
	if !fs.Rewind() {
		t.Fatal("Rewind failed")
	}
	for i := range first {
		if got := fs.Next(); got != first[i] {
			t.Fatalf("instr %d after rewind: %+v, want %+v", i, got, first[i])
		}
	}
}

// TestStreamReplayBadMagic: a non-trace and a v1 capture both fail at
// construction, the v1 one naming its import path.
func TestStreamReplayBadMagic(t *testing.T) {
	if _, err := NewFrameStreamReplay(bytes.NewReader([]byte("NOTATRACE")), true, 0); err == nil {
		t.Fatal("bad magic accepted at construction")
	}
	v1 := encode(t, []workload.Ref{{Addr: 64, Mem: true}})
	if _, err := NewFrameStreamReplay(bytes.NewReader(v1), true, 0); err == nil ||
		!strings.Contains(err.Error(), "tracegen -compile") {
		t.Fatalf("v1 capture: want an error naming tracegen -compile, got %v", err)
	}
}

// TestStreamReplayErrorSticky corrupts the last frame of a trace: the stream
// must replay the intact frames, degrade to compute no-ops at the corrupt
// one, report the error, and refuse to Rewind (so arenas rebuild instead of
// reusing it).
func TestStreamReplayErrorSticky(t *testing.T) {
	ct := NewCompiled([]Run{{Skip: 2, Line: 1}, {Skip: 0, Line: 5}, {Skip: 1, Line: 9}}, 0)
	data := framed(t, ct, 2)
	last := binary.LittleEndian.Uint32(data[compiledHeaderSize+4:]) // frame 1's length
	for i := len(data) - int(last); i < len(data); i++ {
		data[i] ^= 0xFF
	}
	fs, err := NewFrameStreamReplay(bytes.NewReader(data), true, 0)
	if err != nil {
		t.Fatal(err) // header and index are intact
	}
	for i, want := range []uint64{64, 5 * 64} {
		if _, addr, mem := fs.NextRun(100); !mem || addr != want {
			t.Fatalf("intact frame, run %d: NextRun = (_, %#x, %v), want %#x", i, addr, mem, want)
		}
	}
	for i := 0; i < 5; i++ {
		if _, _, mem := fs.NextRun(100); mem {
			t.Fatal("corrupt stream emitted a memory op")
		}
	}
	if fs.Err() == nil {
		t.Fatal("Err() is nil after inflating a corrupt frame")
	}
	if fs.Rewind() {
		t.Fatal("Rewind succeeded on a failed stream")
	}
}
