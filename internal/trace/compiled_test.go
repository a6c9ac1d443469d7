package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// captureCompiled captures n instructions of a synthetic profile and returns
// both its v1 encoding and the compiled form.
func captureCompiled(t testing.TB, bench string, n uint64) ([]byte, *CompiledTrace) {
	t.Helper()
	ct := captureBench(t, bench, 13, n)
	var buf bytes.Buffer
	if err := writeV1(&buf, ct); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ct
}

func sameCompiled(t *testing.T, what string, got, want *CompiledTrace) {
	t.Helper()
	runsEqual := len(got.Runs) == len(want.Runs)
	for i := 0; runsEqual && i < len(got.Runs); i++ {
		runsEqual = got.Runs[i] == want.Runs[i]
	}
	if !runsEqual || got.Tail != want.Tail ||
		got.Instructions() != want.Instructions() || got.SampleRate() != want.SampleRate() {
		t.Fatalf("%s: decoded trace differs: %d runs/%d tail/%d instr/rate %d, want %d/%d/%d/%d",
			what, len(got.Runs), got.Tail, got.Instructions(), got.SampleRate(),
			len(want.Runs), want.Tail, want.Instructions(), want.SampleRate())
	}
}

func TestCompiledRoundTrip(t *testing.T) {
	_, ct := captureCompiled(t, "mcf", 120_000)

	var raw bytes.Buffer
	if err := WriteCompiled(&raw, ct); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCompiled(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "raw", got, ct)
	if got.Fingerprint() != ct.Fingerprint() {
		t.Fatalf("fingerprint changed: %016x vs %016x", got.Fingerprint(), ct.Fingerprint())
	}

	// Framed, with a frame size small enough to force many frames (and a
	// ragged last frame).
	var framed bytes.Buffer
	if err := WriteCompiledFrames(&framed, ct, 1000, 3); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadCompiled(bytes.NewReader(framed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "framed", got2, ct)

	// Container independence: both headers carry the same fingerprint.
	h1, err := ReadCompiledHeader(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := ReadCompiledHeader(bytes.NewReader(framed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h1.Fingerprint != h2.Fingerprint || h1.Fingerprint != ct.Fingerprint() {
		t.Fatalf("fingerprints diverge across containers: raw %016x framed %016x trace %016x",
			h1.Fingerprint, h2.Fingerprint, ct.Fingerprint())
	}
	if h2.FrameRuns != 1000 || int(h2.FrameCount) != (len(ct.Runs)+999)/1000 {
		t.Fatalf("frame geometry %d×%d for %d runs", h2.FrameRuns, h2.FrameCount, len(ct.Runs))
	}
	if framed.Len() >= raw.Len() {
		t.Logf("note: framed (%d B) not smaller than raw (%d B) on this trace", framed.Len(), raw.Len())
	}
}

func TestCompiledEmptyAndTailOnly(t *testing.T) {
	for _, ct := range []*CompiledTrace{
		{},
		{Tail: 500, instr: 500},
		{Runs: []Run{{Skip: 3, Line: 9}}, Tail: 7, instr: 11},
	} {
		var raw, framed bytes.Buffer
		if err := WriteCompiled(&raw, ct); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCompiled(bytes.NewReader(raw.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		sameCompiled(t, "raw", got, ct)
		if err := WriteCompiledFrames(&framed, ct, 0, 0); err != nil {
			t.Fatal(err)
		}
		if got, err = ReadCompiled(bytes.NewReader(framed.Bytes())); err != nil {
			t.Fatal(err)
		}
		sameCompiled(t, "framed", got, ct)
	}
}

// TestWriteV1RoundTrip: Compile inverts the v1 encoding of a capture
// exactly, so a trace imported from v1 is the trace that was encoded.
func TestWriteV1RoundTrip(t *testing.T) {
	v1, ct := captureCompiled(t, "gcc", 90_000)
	again, err := Compile(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	sameCompiled(t, "v1 round trip", again, ct)
}

func TestMmapOpenCompiled(t *testing.T) {
	_, ct := captureCompiled(t, "mcf", 100_000)
	dir := t.TempDir()

	write := func(name string, framed bool) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if framed {
			err = WriteCompiledFrames(f, ct, 2048, 0)
		} else {
			err = WriteCompiled(f, ct)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	raw := write("t.symc", false)
	mt, err := OpenCompiled(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	sameCompiled(t, "mmap", mt.Trace(), ct)
	if mt.Header().Fingerprint != ct.Fingerprint() {
		t.Fatal("mapped header fingerprint mismatch")
	}
	if err := VerifyCompiled(mt.Trace(), mt.Header().Fingerprint); err != nil {
		t.Fatal(err)
	}

	// Framed files open through the portable path but must decode the same.
	framed := write("t-framed.symc", true)
	mtf, err := OpenCompiled(framed)
	if err != nil {
		t.Fatal(err)
	}
	defer mtf.Close()
	if mtf.Mapped() {
		t.Fatal("framed file claims a zero-decode mapping")
	}
	sameCompiled(t, "framed open", mtf.Trace(), ct)

	// Replays over the mapped view and the heap copy are bit-identical.
	a, b := NewRunReplay(mt.Trace(), false, 0), NewRunReplay(mtf.Trace(), false, 0)
	for {
		s1, l1, m1 := a.NextRun(1 << 20)
		s2, l2, m2 := b.NextRun(1 << 20)
		if s1 != s2 || l1 != l2 || m1 != m2 {
			t.Fatalf("mapped vs heap replay diverged: (%d,%d,%v) vs (%d,%d,%v)", s1, l1, m1, s2, l2, m2)
		}
		if !m1 {
			break
		}
	}

	// A truncated raw file must be rejected by the size bounds check.
	data, err := os.ReadFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.symc")
	if err := os.WriteFile(short, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCompiled(short); err == nil {
		t.Fatal("truncated compiled file opened cleanly")
	}
}

// TestCompiledDecodeErrors drives every rejection path the fuzz target
// guards: bad magic/version, truncated header, header count mismatches,
// corrupt frame index, truncated frames.
func TestCompiledDecodeErrors(t *testing.T) {
	_, ct := captureCompiled(t, "mcf", 40_000)
	var raw, framed bytes.Buffer
	if err := WriteCompiled(&raw, ct); err != nil {
		t.Fatal(err)
	}
	if err := WriteCompiledFrames(&framed, ct, 512, 0); err != nil {
		t.Fatal(err)
	}

	mutate := func(src []byte, f func(b []byte)) []byte {
		b := append([]byte(nil), src...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"not a trace", []byte("NOTATRACEATALL--")},
		{"v1 magic", append(append([]byte{}, magic[:]...), raw.Bytes()[8:]...)},
		{"bad version", mutate(raw.Bytes(), func(b []byte) { b[7] = 9 })},
		{"unknown flags", mutate(raw.Bytes(), func(b []byte) { b[8] |= 0x80 })},
		{"zero sample rate", mutate(raw.Bytes(), func(b []byte) { binary.LittleEndian.PutUint32(b[12:16], 0) })},
		{"truncated header", raw.Bytes()[:40]},
		{"count over payload", mutate(raw.Bytes(), func(b []byte) {
			binary.LittleEndian.PutUint64(b[24:32], binary.LittleEndian.Uint64(b[24:32])+1)
		})},
		{"trailing bytes", append(append([]byte{}, raw.Bytes()...), 0xFF)},
		{"instr mismatch", mutate(raw.Bytes(), func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:24], binary.LittleEndian.Uint64(b[16:24])+3)
		})},
		{"inconsistent counts", mutate(raw.Bytes(), func(b []byte) {
			binary.LittleEndian.PutUint64(b[32:40], ^uint64(0))
		})},
		{"frame geometry on raw", mutate(raw.Bytes(), func(b []byte) { b[48] = 1 })},
		{"frame count mismatch", mutate(framed.Bytes(), func(b []byte) {
			binary.LittleEndian.PutUint32(b[52:56], binary.LittleEndian.Uint32(b[52:56])+1)
		})},
		{"corrupt frame index", mutate(framed.Bytes(), func(b []byte) {
			binary.LittleEndian.PutUint32(b[compiledHeaderSize:], 7) // first frame length lies
		})},
		{"oversized frame claim", mutate(framed.Bytes(), func(b []byte) {
			binary.LittleEndian.PutUint32(b[compiledHeaderSize:], ^uint32(0))
		})},
		{"truncated frame", framed.Bytes()[:framed.Len()-5]},
		{"garbage frame bytes", mutate(framed.Bytes(), func(b []byte) {
			for i := len(b) - 40; i < len(b); i++ {
				b[i] ^= 0xA5
			}
		})},
	}
	for _, tc := range cases {
		if _, err := ReadCompiled(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The valid inputs still decode (the mutations above copied them).
	if _, err := ReadCompiled(bytes.NewReader(raw.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCompiled(bytes.NewReader(framed.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestFrameStreamReplayMatchesCompiled(t *testing.T) {
	_, ct := captureCompiled(t, "omnetpp", 80_000)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.symc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCompiledFrames(f, ct, 777, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	src, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, loop := range []bool{false, true} {
		fs, err := NewFrameStreamReplay(src, loop, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		want := NewRunReplay(ct, loop, 1<<40)
		limit := 937 // deliberately unaligned with frame and run boundaries
		for step := 0; step < 400; step++ {
			s1, a1, m1 := want.NextRun(limit)
			s2, a2, m2 := fs.NextRun(limit)
			if s1 != s2 || a1 != a2 || m1 != m2 {
				t.Fatalf("loop=%v step %d: compiled (%d,%#x,%v) vs framed stream (%d,%#x,%v)",
					loop, step, s1, a1, m1, s2, a2, m2)
			}
		}
		if !fs.Rewind() {
			t.Fatal("healthy frame stream refused rewind")
		}
		want2 := NewRunReplay(ct, loop, 1<<40)
		s1, a1, m1 := want2.NextRun(limit)
		s2, a2, m2 := fs.NextRun(limit)
		if s1 != s2 || a1 != a2 || m1 != m2 {
			t.Fatalf("loop=%v after rewind: (%d,%#x,%v) vs (%d,%#x,%v)", loop, s1, a1, m1, s2, a2, m2)
		}
	}

	// An unframed file is rejected with a pointer at the right API.
	rawPath := filepath.Join(dir, "raw.symc")
	rf, err := os.Create(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCompiled(rf, ct); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	rsrc, err := os.Open(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rsrc.Close()
	if _, err := NewFrameStreamReplay(rsrc, false, 0); err == nil || !strings.Contains(err.Error(), "framed") {
		t.Fatalf("unframed file accepted by frame stream: %v", err)
	}
}

func TestDownsample(t *testing.T) {
	_, ct := captureCompiled(t, "mcf", 200_000)
	for _, rate := range []int{2, 4, 16} {
		ds, err := Downsample(ct, rate)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Instructions() != ct.Instructions() {
			t.Fatalf("rate %d: instruction count changed %d -> %d", rate, ct.Instructions(), ds.Instructions())
		}
		want := (len(ct.Runs) + rate - 1) / rate
		if len(ds.Runs) != want {
			t.Fatalf("rate %d: %d refs, want %d", rate, len(ds.Runs), want)
		}
		if ds.SampleRate() != uint32(rate) {
			t.Fatalf("rate %d not recorded: %d", rate, ds.SampleRate())
		}
		// Arithmetic identity: sum(skip)+refs+tail is preserved run for run.
		var sum uint64
		for _, r := range ds.Runs {
			sum += r.Skip + 1
		}
		if sum+ds.Tail != ct.Instructions() {
			t.Fatalf("rate %d: payload sums to %d, want %d", rate, sum+ds.Tail, ct.Instructions())
		}
		// The rate survives the codec.
		var buf bytes.Buffer
		if err := WriteCompiled(&buf, ds); err != nil {
			t.Fatal(err)
		}
		h, err := ReadCompiledHeader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if h.SampleRate != uint32(rate) {
			t.Fatalf("header sample rate %d, want %d", h.SampleRate, rate)
		}
		// Footprint signature validation: a sampled capture touches a subset
		// of the full-rate lines; at these rates on this capture the coverage
		// stays above the documented floor (deterministic: fixed seed).
		cov := DownsampleCoverage(ct, ds)
		if cov <= 0 || cov > 1 {
			t.Fatalf("rate %d: coverage %f out of range", rate, cov)
		}
		if floor := 1.0 / float64(rate) * 0.5; cov < floor {
			t.Fatalf("rate %d: coverage %f below floor %f", rate, cov, floor)
		}
		t.Logf("rate %d: %d -> %d refs, footprint coverage %.3f", rate, len(ct.Runs), len(ds.Runs), cov)
	}

	if _, err := Downsample(ct, 0); err == nil {
		t.Fatal("rate 0 accepted")
	}
	same, err := Downsample(ct, 1)
	if err != nil || same != ct {
		t.Fatalf("rate 1 must return the input unchanged (%v)", err)
	}

	// Stacking rates multiplies the recorded rate.
	ds2, err := Downsample(ct, 2)
	if err != nil {
		t.Fatal(err)
	}
	ds6, err := Downsample(ds2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ds6.SampleRate() != 6 {
		t.Fatalf("stacked rate = %d, want 6", ds6.SampleRate())
	}
}

// TestReadCompiledLyingHeader: a header that claims astronomically many
// records over a tiny payload must fail quickly with bounded allocation,
// never hang or over-read.
func TestReadCompiledLyingHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCompiled(&buf, &CompiledTrace{Runs: []Run{{Skip: 1, Line: 2}}, instr: 2}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint64(b[24:32], 1<<60) // memRefs
	binary.LittleEndian.PutUint64(b[16:24], 1<<61) // instr, self-consistent
	if _, err := ReadCompiled(bytes.NewReader(b)); err == nil {
		t.Fatal("lying header accepted")
	}
}

// lyingFramed builds a framed file of header plus index and no frame bytes.
func lyingFramed(memRefs uint64, frameRuns, frameCount uint32, index ...uint32) []byte {
	var hdr [compiledHeaderSize]byte
	CompiledHeader{Framed: true, SampleRate: 1, Instr: memRefs, MemRefs: memRefs,
		FrameRuns: frameRuns, FrameCount: frameCount}.encode(&hdr)
	b := append([]byte(nil), hdr[:]...)
	for _, n := range index {
		b = binary.LittleEndian.AppendUint32(b, n)
	}
	return b
}

// lyingFramedFiles are framed files whose headers claim far more than their
// bytes hold; they also seed FuzzCompiledDecode.
var lyingFramedFiles = []struct {
	name string
	data []byte
}{
	// 60 bytes: one frame of 4 Mi records, 1 MiB of which the index claims.
	{"4Mi records in one frame", lyingFramed(4<<20, 4<<20, 1, 1<<20)},
	// 2^32−1 one-record frames, and not one byte of their index.
	{"2^32-1 frames", lyingFramed(1<<32-1, 1, 1<<32-1)},
	// One frame of the largest geometry a header may declare.
	{"one 64Mi-run frame", lyingFramed(64<<20, 64<<20, 1, 2<<20)},
	// The same frame claiming fewer compressed bytes than DEFLATE's 1032:1
	// ratio allows for its records.
	{"frame past DEFLATE's ratio", lyingFramed(64<<20, 64<<20, 1, 1000)},
}

// TestFramedReadBoundedByBytes: a framed file whose header claims far more
// than its bytes hold fails with ErrCorrupt, through ReadCompiled and
// through the frame stream, having allocated less than 1 MiB — not the
// index, runs or frame bytes the header claims.
func TestFramedReadBoundedByBytes(t *testing.T) {
	for _, tc := range lyingFramedFiles {
		allocs := func(read func() error) {
			t.Helper()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: %v, want ErrCorrupt", tc.name, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("%s: allocated %d bytes for a %d-byte file", tc.name, grew, len(tc.data))
			}
		}
		allocs(func() error {
			_, err := ReadCompiled(bytes.NewReader(tc.data))
			return err
		})
		allocs(func() error {
			fs, err := NewFrameStreamReplay(bytes.NewReader(tc.data), false, 0)
			if err != nil {
				return err
			}
			fs.NextRun(1)
			return fs.Err()
		})
	}
}

// TestFramedTornTrailerRefused: XOR 0xA5 over the last 4 bytes of a framed
// file tears the last frame's DEFLATE stream after its final record — the
// closing empty stored block's LEN/NLEN stay complementary and claim 42,405
// missing bytes — so every record still inflates; ReadCompiled and the frame
// stream must both refuse the file.
func TestFramedTornTrailerRefused(t *testing.T) {
	ct := captureBench(t, "mcf", 13, 40_000)
	var framed bytes.Buffer
	if err := WriteCompiledFrames(&framed, ct, 512, 0); err != nil {
		t.Fatal(err)
	}
	b := framed.Bytes()
	for i := len(b) - 4; i < len(b); i++ {
		b[i] ^= 0xA5
	}
	if _, err := ReadCompiled(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadCompiled of a torn trailer: %v, want ErrCorrupt", err)
	}
	fs, err := NewFrameStreamReplay(bytes.NewReader(b), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= len(ct.Runs) && fs.Err() == nil; i++ {
		fs.NextRun(1 << 30)
	}
	if !errors.Is(fs.Err(), ErrCorrupt) {
		t.Fatalf("frame stream of a torn trailer: %v, want ErrCorrupt", fs.Err())
	}
}
