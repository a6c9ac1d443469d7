package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"symbiosched/internal/workload"
)

// FuzzTraceRoundTrip throws arbitrary bytes at the v1 import path.
// Invariants: Compile never panics or runs unbounded work on garbage (the
// corrupt-tail hang), anything it accepts re-encodes in v1 (writeV1, the
// tests' reference encoder) to a stream Compile reads back unchanged, and
// the imported trace survives both v2 containers exactly.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("NOTATRACE"))
	f.Add(magic[:])
	f.Add(append(append([]byte{}, magic[:]...), 0x00))
	valid := encode(f, []workload.Ref{
		{},
		{Addr: 64, Mem: true},
		{},
		{Addr: 0, Mem: true}, // negative delta
		{},
		{},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // torn tail record
	f.Add(corruptTailBytes())
	f.Add(truncatedVarintBytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := Compile(bytes.NewReader(data))
		if err != nil {
			return // corrupt input rejected: nothing more to check
		}
		// Runs are bounded by the input's length, but their counts are not:
		// past 2^32 per run the instruction total may overflow, which no
		// container can then describe.
		if ct.Tail > 1<<32 {
			return
		}
		for _, r := range ct.Runs {
			if r.Skip > 1<<32 {
				return
			}
		}

		// Round-trip: re-encode the imported trace and import it again.
		var buf bytes.Buffer
		if err := writeV1(&buf, ct); err != nil {
			t.Fatal(err)
		}
		again, err := Compile(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		sameCompiled(t, "v1 round trip", again, ct)

		// v2 codecs: the compiled trace must survive both containers exactly,
		// with the same content fingerprint on each side.
		for _, framed := range []bool{false, true} {
			var enc bytes.Buffer
			var err error
			if framed {
				err = WriteCompiledFrames(&enc, ct, 64, 2)
			} else {
				err = WriteCompiled(&enc, ct)
			}
			if err != nil {
				t.Fatalf("framed=%v encode: %v", framed, err)
			}
			got, err := ReadCompiled(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatalf("framed=%v: rejected own encoding: %v", framed, err)
			}
			if got.Fingerprint() != ct.Fingerprint() {
				t.Fatalf("framed=%v: v2 round trip changed the fingerprint", framed)
			}
			sameCompiled(t, "v2 round trip", got, ct)
		}
	})
}

// FuzzCompiledDecode throws arbitrary bytes at the v2 decoders. Invariants:
// never panic, never hang, never allocate unboundedly ahead of real bytes
// (lying headers), and anything ReadCompiled accepts must re-encode to a
// decodable trace with the same fingerprint. Seeds cover the documented
// corruption classes: bad magic/version, header count mismatch, corrupt
// frame index, truncated frame, and framed headers claiming far more
// frames, runs or frame bytes than the file holds.
func FuzzCompiledDecode(f *testing.F) {
	seedTrace := &CompiledTrace{
		Runs:  []Run{{Skip: 2, Line: 100}, {Skip: 0, Line: 101}, {Skip: 7, Line: 4}},
		Tail:  5,
		instr: 17,
	}
	var raw, framed bytes.Buffer
	if err := WriteCompiled(&raw, seedTrace); err != nil {
		f.Fatal(err)
	}
	if err := WriteCompiledFrames(&framed, seedTrace, 2, 1); err != nil {
		f.Fatal(err)
	}
	mutated := func(src []byte, mutate func(b []byte)) []byte {
		b := append([]byte(nil), src...)
		mutate(b)
		return b
	}
	f.Add([]byte{})
	f.Add(magic2[:])
	f.Add(raw.Bytes())
	f.Add(framed.Bytes())
	f.Add(mutated(raw.Bytes(), func(b []byte) { b[7] = 3 }))                   // bad version
	f.Add(mutated(raw.Bytes(), func(b []byte) { b[0] = 'X' }))                 // bad magic
	f.Add(mutated(raw.Bytes(), func(b []byte) { b[24]++ }))                    // header count mismatch
	f.Add(mutated(framed.Bytes(), func(b []byte) { b[compiledHeaderSize]++ })) // corrupt frame index
	f.Add(framed.Bytes()[:framed.Len()-3])                                     // truncated frame
	f.Add(raw.Bytes()[:40])                                                    // truncated header
	f.Add(mutated(raw.Bytes(), func(b []byte) {                                // astronomical record count
		binary.LittleEndian.PutUint64(b[16:24], 1<<62)
		binary.LittleEndian.PutUint64(b[24:32], 1<<61)
	}))
	for _, lying := range lyingFramedFiles[:3] { // headers claiming far more than the file holds
		f.Add(lying.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ReadCompiledHeader(bytes.NewReader(data)); err != nil {
			// A rejected header must also reject the full decode.
			if _, err := ReadCompiled(bytes.NewReader(data)); err == nil {
				t.Fatal("ReadCompiled accepted what ReadCompiledHeader rejects")
			}
			return
		}
		ct, err := ReadCompiled(bytes.NewReader(data))
		if err != nil {
			return // valid header, corrupt payload: rejected is correct
		}
		if uint64(len(ct.Runs)) > 1<<20 {
			return // decodable but huge: skip the re-encode pass
		}
		var enc bytes.Buffer
		if err := WriteCompiled(&enc, ct); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		again, err := ReadCompiled(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if again.Fingerprint() != ct.Fingerprint() {
			t.Fatal("re-encode changed the content fingerprint")
		}
	})
}

// corruptTailBytes is a v1 trace whose only record is a tail marker with a
// negative count.
func corruptTailBytes() []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write(appendUvarint(nil, tailMarker))
	buf.Write(appendVarint(nil, -5))
	return buf.Bytes()
}

// truncatedVarintBytes is a v1 trace torn mid-record: a gap uvarint with no
// delta after it.
func truncatedVarintBytes() []byte {
	return appendUvarint(append([]byte{}, magic[:]...), 3)
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func appendVarint(b []byte, v int64) []byte {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return appendUvarint(b, uv)
}
