package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"symbiosched/internal/trace"
	"symbiosched/internal/workload"
)

// convertTraces replaces the named raw traces in dir with framed copies.
// Each copy is renamed over its original, so a pool that mapped the raw file
// keeps reading it.
func convertTraces(t *testing.T, dir string, names []string) {
	t.Helper()
	for _, name := range names {
		path := filepath.Join(dir, name+trace.CompiledExt)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := trace.ReadCompiled(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		writeTrace(t, path+".tmp", ct, true)
		if err := os.Rename(path+".tmp", path); err != nil {
			t.Fatal(err)
		}
	}
}

// v1Capture is a v1 varint trace holding nothing after its header: enough
// for any reader to recognise the format.
var v1Capture = []byte("SYMTRC\x00\x01")

// drainSource pulls a bounded prefix of a source's run stream for comparison.
func drainSource(src workload.RefSource, steps int) []string {
	rs := src.(workload.RunSource)
	out := make([]string, 0, steps)
	for i := 0; i < steps; i++ {
		skip, addr, mem := rs.NextRun(1 << 16)
		out = append(out, fmt.Sprintf("%d/%x/%v", skip, addr, mem))
	}
	return out
}

// TestTracePoolMixedFormats: a directory holding raw traces alongside framed
// conversions of others builds one pool, and a converted trace replays
// exactly like its raw original, resident or streamed.
func TestTracePoolMixedFormats(t *testing.T) {
	dir := t.TempDir()
	names := writeTraceDir(t, dir)

	rawPool, err := TracePoolFromDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Convert half the traces to the framed container, keep the rest raw.
	convertTraces(t, dir, names[:2])
	files, err := ListTraceDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, stream := range []bool{false, true} {
		pool, err := TracePoolFromFiles(files, stream)
		if err != nil {
			t.Fatal(err)
		}
		if len(pool) != len(names) {
			t.Fatalf("mixed pool has %d profiles, want %d", len(pool), len(names))
		}
		for i, p := range pool {
			if p.Name != names[i] {
				t.Fatalf("profile %d is %q, want %q", i, p.Name, names[i])
			}
			if p.Instructions != rawPool[i].Instructions {
				t.Fatalf("%s: conversion changed instruction count %d -> %d",
					p.Name, rawPool[i].Instructions, p.Instructions)
			}
			// The replay streams must be bit-identical across containers.
			want := drainSource(rawPool[i].MakeSources(3, 0, 0)[0], 64)
			got := drainSource(p.MakeSources(3, 0, 0)[0], 64)
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("stream=%v %s: replay diverged at step %d: %s vs %s", stream, p.Name, j, want[j], got[j])
				}
			}
		}
	}
}

// TestTracePoolRefusesV1Capture: a v1 capture in a trace directory fails
// the pool and the corpus with an error naming the import path, and the
// directory works once the capture has been compiled.
func TestTracePoolRefusesV1Capture(t *testing.T) {
	dir := t.TempDir()
	writeTraceDir(t, dir)
	v1 := filepath.Join(dir, "sjeng.trc")
	if err := os.WriteFile(v1, v1Capture, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := TracePoolFromDir(dir); err == nil || !strings.Contains(err.Error(), "tracegen -compile") {
		t.Fatalf("pool over a v1 capture: want an error naming tracegen -compile, got %v", err)
	}
	if _, err := LoadCorpus(dir); err == nil || !strings.Contains(err.Error(), "tracegen -compile") {
		t.Fatalf("corpus over a v1 capture: want an error naming tracegen -compile, got %v", err)
	}
	if err := os.Remove(v1); err != nil {
		t.Fatal(err)
	}
	writeTrace(t, filepath.Join(dir, "sjeng"+trace.CompiledExt), trace.NewCompiled(nil, 100), false)
	if _, err := TracePoolFromDir(dir); err != nil {
		t.Fatal(err)
	}
}

// TestListTraceDirSkipsJunk: non-trace files in a trace directory are skipped
// with a warning, not a pool failure; v1 captures are listed (tracegen
// -compile imports them from the listing); name collisions across
// containers fail.
func TestListTraceDirSkipsJunk(t *testing.T) {
	dir := t.TempDir()
	names := append(writeTraceDir(t, dir), "sjeng")
	if err := os.WriteFile(filepath.Join(dir, "sjeng.trc"), v1Capture, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"README.md", "mcf.trc.partial", "checksums.txt"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("not a trace"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// An empty file (a torn download) is also junk, not an error.
	if err := os.WriteFile(filepath.Join(dir, "empty.trc"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	oldLogf := TraceLogf
	TraceLogf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	defer func() { TraceLogf = oldLogf }()

	files, err := ListTraceDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(names) {
		t.Fatalf("listed %d traces, want %d", len(files), len(names))
	}
	for i, tf := range files {
		if tf.Name != names[i] {
			t.Fatalf("entry %d is %q, want %q", i, tf.Name, names[i])
		}
	}
	if len(warnings) != 4 {
		t.Fatalf("%d warnings, want 4: %q", len(warnings), warnings)
	}
	for _, w := range warnings {
		if !strings.Contains(w, "skipping") {
			t.Fatalf("warning %q does not say skipping", w)
		}
	}

	// Same base name in both formats collides on the profile name.
	if err := os.WriteFile(filepath.Join(dir, "mcf.trc"), v1Capture, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ListTraceDir(dir); err == nil || !strings.Contains(err.Error(), "collide") {
		t.Fatalf("colliding names not rejected: %v", err)
	}
}

func TestCorpus(t *testing.T) {
	dir := t.TempDir()
	names := writeTraceDir(t, dir)
	convertTraces(t, dir, names[1:3])

	c, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Refs) != len(names) {
		t.Fatalf("corpus has %d refs, want %d", len(c.Refs), len(names))
	}
	pool, err := TracePoolFromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range c.Refs {
		if ref.Name != names[i] {
			t.Fatalf("ref %d is %q, want %q", i, ref.Name, names[i])
		}
		// The corpus address is the same fingerprint the pool profile carries:
		// campaign pool hashes transitively pin trace content.
		if ref.Fingerprint != pool[i].Fingerprint {
			t.Fatalf("%s: corpus fingerprint %s, pool fingerprint %s",
				ref.Name, ref.Fingerprint, pool[i].Fingerprint)
		}
		got, ok := c.Lookup(ref.Fingerprint)
		if !ok || got != ref {
			t.Fatalf("lookup %s: %+v, %v", ref.Fingerprint, got, ok)
		}
		st, err := os.Stat(c.Path(ref))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != ref.Size {
			t.Fatalf("%s: size %d, ref says %d", ref.Name, st.Size(), ref.Size)
		}
		if err := VerifyTraceFile(c.Path(ref), ref); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Lookup("doesnotexist"); ok {
		t.Fatal("lookup of unknown fingerprint succeeded")
	}

	// TraceFilesFor rebuilds an identical pool from explicit paths.
	files, err := TraceFilesFor(c.Refs, c.Path)
	if err != nil {
		t.Fatal(err)
	}
	pool2, err := TracePoolFromFiles(files, false)
	if err != nil {
		t.Fatal(err)
	}
	if PoolHashProfiles(pool2) != PoolHashProfiles(pool) {
		t.Fatal("pool rebuilt from corpus refs hashes differently")
	}

	// A flipped byte fails verification: torn or tampered fetches never
	// enter a worker's cache.
	for _, ref := range []TraceRef{c.Refs[0], c.Refs[1]} { // one raw, one framed
		path := c.Path(ref)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(t.TempDir(), ref.File)
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := VerifyTraceFile(bad, ref); err == nil {
			t.Fatalf("%s: corrupted file verified cleanly", ref.File)
		}
		// Truncation is caught by the size check even when the hash of the
		// prefix is never computed.
		short := filepath.Join(t.TempDir(), ref.File)
		if err := os.WriteFile(short, data[:len(data)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := VerifyTraceFile(short, ref); err == nil {
			t.Fatalf("%s: truncated file verified cleanly", ref.File)
		}
	}
}
