package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"symbiosched/internal/workload"
)

// writeV1 encodes a compiled trace in the v1 varint format: the exact
// inverse of Compile. The program reads v1 but no longer writes it, so this
// encoder is the tests' reference for the format trace.go documents.
func writeV1(w io.Writer, ct *CompiledTrace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [2 * binary.MaxVarintLen64]byte
	var lastLine uint64
	for _, r := range ct.Runs {
		n := binary.PutUvarint(buf[:], r.Skip)
		n += binary.PutVarint(buf[n:], int64(r.Line)-int64(lastLine))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		lastLine = r.Line
	}
	if ct.Tail > 0 {
		n := binary.PutUvarint(buf[:], tailMarker)
		n += binary.PutVarint(buf[n:], int64(ct.Tail))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// runsOf folds a per-instruction stream into run-length form (line
// granular), the way a capture stores it.
func runsOf(refs []workload.Ref) *CompiledTrace {
	var runs []Run
	var gap uint64
	for _, r := range refs {
		if !r.Mem {
			gap++
			continue
		}
		runs = append(runs, Run{Skip: gap, Line: r.Addr >> 6})
		gap = 0
	}
	return NewCompiled(runs, gap)
}

// encode serialises refs in the v1 format and returns the raw trace bytes.
func encode(t testing.TB, refs []workload.Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeV1(&buf, runsOf(refs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// flatten expands a compiled trace back into one Ref per instruction.
func flatten(ct *CompiledTrace) []workload.Ref {
	rp := NewRunReplay(ct, false, 0)
	out := make([]workload.Ref, ct.Instructions())
	for i := range out {
		out[i] = rp.Next()
	}
	return out
}

func TestReaderNextRun(t *testing.T) {
	data := encode(t, []workload.Ref{
		{},
		{Addr: 64, Mem: true},
		{},
		{},
		{Addr: 128, Mem: true},
		{},
		{},
	})
	tr := newReader(bytes.NewReader(data))
	type run struct {
		skip, line uint64
		mem        bool
	}
	want := []run{{1, 1, true}, {2, 2, true}, {2, 0, false}}
	for i, w := range want {
		skip, line, mem, err := tr.nextRun()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if skip != w.skip || mem != w.mem || (mem && line != w.line) {
			t.Fatalf("run %d: got (%d, %d, %v), want %+v", i, skip, line, mem, w)
		}
	}
	if _, _, _, err := tr.nextRun(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

// TestCorruptTailMarker feeds the decoder a tail-marker record with a
// negative count — input no encoder produces. Decoded as a huge unsigned
// gap it would be 2^63 synthetic compute ops, so it must be rejected.
func TestCorruptTailMarker(t *testing.T) {
	tr := newReader(bytes.NewReader(corruptTailBytes()))
	if _, _, _, err := tr.nextRun(); err == nil {
		t.Fatal("nextRun accepted a negative tail count")
	}
	if _, err := Compile(bytes.NewReader(corruptTailBytes())); err == nil {
		t.Fatal("Compile accepted a negative tail count")
	}
}

func TestTruncatedVarint(t *testing.T) {
	data := truncatedVarintBytes()
	if _, err := Compile(bytes.NewReader(data)); err == nil {
		t.Fatal("Compile accepted a torn record")
	}
	tr := newReader(bytes.NewReader(data))
	if _, _, _, err := tr.nextRun(); err == nil || err == io.EOF {
		t.Fatalf("nextRun: want a truncation error, got %v", err)
	}
}

func TestCompile(t *testing.T) {
	refs := []workload.Ref{
		{},
		{Addr: 64, Mem: true},
		{},
		{},
		{Addr: 128, Mem: true},
		{},
		{},
		{},
	}
	ct, err := Compile(bytes.NewReader(encode(t, refs)))
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := []Run{{Skip: 1, Line: 1}, {Skip: 2, Line: 2}}
	if len(ct.Runs) != len(wantRuns) {
		t.Fatalf("got %d runs, want %d", len(ct.Runs), len(wantRuns))
	}
	for i, w := range wantRuns {
		if ct.Runs[i] != w {
			t.Fatalf("run %d: got %+v, want %+v", i, ct.Runs[i], w)
		}
	}
	if ct.Tail != 3 {
		t.Fatalf("Tail = %d, want 3", ct.Tail)
	}
	if ct.Instructions() != uint64(len(refs)) {
		t.Fatalf("Instructions = %d, want %d", ct.Instructions(), len(refs))
	}
	if ct.MemRefs() != 2 {
		t.Fatalf("MemRefs = %d, want 2", ct.MemRefs())
	}
}

// captureBench captures n instructions of a named benchmark at quick scale.
func captureBench(t testing.TB, name string, seed, n uint64) *CompiledTrace {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return CaptureRuns(p.NewThreads(1, seed, 64)[0], n)
}

// TestCaptureGolden pins CaptureRuns to the traces the v1 path produced:
// each row was recorded as the compiled form of a v1 capture (per-instruction
// writer, then Compile) of the same generator, and the direct capture must
// reproduce its content fingerprint and counts. The last row is tracegen's
// default capture (-bench mcf -scale 16 -seed 42 -n 1000000). Each row also
// imports back: Compile of the trace's v1 encoding is the same trace.
func TestCaptureGolden(t *testing.T) {
	for _, g := range []struct {
		bench             string
		seed, div, n      uint64
		fingerprint       uint64
		instr, refs, tail uint64
	}{
		{"mcf", 7, 64, 200_000, 0x8bc543d77516e404, 200_000, 80_000, 0},
		{"mcf", 42, 64, 200_000, 0xfe9e29e05a95af5e, 200_000, 80_000, 0},
		{"gcc", 7, 64, 200_000, 0x1d70f74e4a259ad0, 200_000, 59_999, 3},
		{"gcc", 42, 64, 200_000, 0x2241534c75815ba2, 200_000, 59_999, 3},
		{"libquantum", 7, 64, 200_000, 0xd9f368d088bee8e1, 200_000, 69_999, 2},
		{"libquantum", 42, 64, 200_000, 0x44951295814fa766, 200_000, 69_999, 2},
		{"mcf", 42, 16, 1_000_000, 0xeb93720d1761338c, 1_000_000, 400_000, 0},
	} {
		p, err := workload.ByName(g.bench)
		if err != nil {
			t.Fatal(err)
		}
		ct := CaptureRuns(p.NewThreads(1, g.seed, g.div)[0], g.n)
		if got := ct.Fingerprint(); got != g.fingerprint || ct.Instructions() != g.instr ||
			ct.MemRefs() != g.refs || ct.Tail != g.tail {
			t.Errorf("%s seed %d /%d: fingerprint %016x, %d instr, %d refs, tail %d; want %016x, %d, %d, %d",
				g.bench, g.seed, g.div, got, ct.Instructions(), ct.MemRefs(), ct.Tail,
				g.fingerprint, g.instr, g.refs, g.tail)
			continue
		}
		var v1 bytes.Buffer
		if err := writeV1(&v1, ct); err != nil {
			t.Fatal(err)
		}
		imported, err := Compile(&v1)
		if err != nil {
			t.Fatal(err)
		}
		if imported.Fingerprint() != g.fingerprint || imported.Instructions() != g.instr {
			t.Errorf("%s seed %d: v1 import gives %016x/%d", g.bench, g.seed, imported.Fingerprint(), imported.Instructions())
		}
	}
}

// refReplay is the per-instruction reference replay: a stream of Refs,
// wrapping around when it runs out.
type refReplay struct {
	refs []workload.Ref
	pos  int
}

func (r *refReplay) Next() workload.Ref {
	if r.pos == len(r.refs) {
		r.pos = 0
	}
	r.pos++
	return r.refs[r.pos-1]
}

// TestRunReplayMatchesReplay pins the compiled replay to a per-instruction
// reference — the live generator's own stream, line-granular — across loop
// wraps and under arbitrary NextRun batch limits.
func TestRunReplayMatchesReplay(t *testing.T) {
	const n = 20_000
	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen := p.NewThreads(1, 11, 64)[0]
	refs := make([]workload.Ref, n)
	for i := range refs {
		if r := gen.Next(); r.Mem {
			refs[i] = workload.Ref{Addr: r.Addr &^ 63, Mem: true}
		}
	}
	ct := captureBench(t, "mcf", 11, n)

	// Per-instruction stepping, three times around the loop.
	ref := &refReplay{refs: refs}
	rp := NewRunReplay(ct, true, 0)
	for i := 0; i < 3*len(refs); i++ {
		if got, want := rp.Next(), ref.Next(); got != want {
			t.Fatalf("instr %d: compiled %+v, reference %+v", i, got, want)
		}
	}

	// Bulk stepping with a rotating limit schedule must flatten to the same
	// stream: reconstruct instructions from (skipped, addr, mem) and compare.
	rp2 := NewRunReplay(ct, true, 0)
	ref2 := &refReplay{refs: refs}
	limits := []int{1, 7, 64, 3, 1000, 2}
	consumed := 0
	for i := 0; consumed < 3*len(refs); i++ {
		limit := limits[i%len(limits)]
		skipped, addr, mem := rp2.NextRun(limit)
		n := skipped
		if mem {
			n++
		}
		if n > limit || (!mem && n != limit) {
			t.Fatalf("NextRun(%d) consumed %d (mem=%v)", limit, n, mem)
		}
		for j := 0; j < skipped; j++ {
			if want := ref2.Next(); want.Mem {
				t.Fatalf("instr %d+%d: reference has a memory op inside a compute run", consumed, j)
			}
		}
		if mem {
			want := ref2.Next()
			if !want.Mem || want.Addr != addr {
				t.Fatalf("instr %d: compiled mem %#x, reference %+v", consumed+skipped, addr, want)
			}
		}
		consumed += n
	}
}

func TestRunReplayRebase(t *testing.T) {
	ct := NewCompiled([]Run{{Skip: 0, Line: 1}}, 0)
	base := uint64(3) << 40
	rp := NewRunReplay(ct, false, base)
	if got := rp.Next(); !got.Mem || got.Addr != 64+base {
		t.Fatalf("rebased ref = %+v, want addr %#x", got, 64+base)
	}
}

func TestRunReplayExhaustionPads(t *testing.T) {
	rp := NewRunReplay(NewCompiled([]Run{{Skip: 0, Line: 1}}, 1), false, 0)
	rp.Next() // the memory ref
	rp.Next() // the tail compute
	for i := 0; i < 10; i++ {
		if skipped, _, mem := rp.NextRun(100); mem || skipped != 100 {
			t.Fatalf("exhausted replay: NextRun = (%d, _, %v), want (100, _, false)", skipped, mem)
		}
	}
	// A looping all-compute trace is an infinite compute stream, not an
	// unbounded accumulator.
	loop := NewRunReplay(NewCompiled(nil, 2), true, 0)
	for i := 0; i < 10; i++ {
		if skipped, _, mem := loop.NextRun(1000); mem || skipped != 1000 {
			t.Fatalf("all-compute loop: NextRun = (%d, _, %v)", skipped, mem)
		}
	}
}

func TestRunReplayRewind(t *testing.T) {
	ct := captureBench(t, "gcc", 3, 5_000)
	rp := NewRunReplay(ct, true, 0)
	first := make([]workload.Ref, 2_000)
	for i := range first {
		first[i] = rp.Next()
	}
	if !rp.Rewind() {
		t.Fatal("Rewind failed")
	}
	for i := range first {
		if got := rp.Next(); got != first[i] {
			t.Fatalf("instr %d after rewind: %+v, want %+v", i, got, first[i])
		}
	}
}
