package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"symbiosched/internal/trace"
	"symbiosched/internal/workload"
)

// The trace layer: what it costs to go from a corpus file on disk to the
// first replayed run, and how long a full decode+replay pass takes, for each
// of the three replay paths:
//
//   - compiled:    v2 raw container read through ReadCompiled (bulk record
//     copy).
//   - mmap:        v2 raw container through OpenCompiled — the view is a
//     reinterpreted mapping, so "open" does no decode at all.
//   - compressed:  v2 framed-flate container streamed frame by frame
//     (FrameStreamReplay), the O(frame) memory path.
//
// The fixture is synthesized deterministically (LCG) and written once per
// container. A replay point's checksum digests the replayed (skip, line)
// stream and its length; all three paths must agree or the run aborts, so
// every recorded replay point is also a replay-parity check. An open point's
// checksum digests the first run. Info mib_per_s is resident MiB (16 B per
// memory reference) over the fastest pass, comparable across containers of
// different on-disk sizes. Replay samples read the whole file before a
// path's open samples run, so opens are measured warm.

// traceMiB is the fixture size: large enough that decoding dominates the
// open of the paths that decode.
const traceMiB = 128

// synthTrace builds the deterministic fixture: mb MiB of 16-byte run records
// with an mcf-like reference density (skips of 0..3) over a 256 MiB-line
// region.
func synthTrace(mb int) *trace.CompiledTrace {
	runs := make([]trace.Run, uint64(mb)<<20/16)
	rng := uint64(0x9E3779B97F4A7C15)
	for i := range runs {
		rng = rng*6364136223846793005 + 1442695040888963407
		r := rng >> 16
		runs[i] = trace.Run{Skip: r % 4, Line: 1<<32 + r%(1<<22)}
	}
	return trace.NewCompiled(runs, 17)
}

// openTrace opens the fixture in dir through one replay path and returns the
// source with the file or mapping to close after it.
func openTrace(dir, format string) (workload.RunSource, io.Closer) {
	switch format {
	case "mmap":
		mt, err := trace.OpenCompiled(filepath.Join(dir, "raw.symc"))
		check(err)
		return trace.NewRunReplay(mt.Trace(), false, 0), mt
	case "compressed":
		f, err := os.Open(filepath.Join(dir, "flate.symc"))
		check(err)
		src, err := trace.NewFrameStreamReplay(f, false, 0)
		check(err)
		return src, f
	}
	f, err := os.Open(filepath.Join(dir, "raw.symc"))
	check(err)
	ct, err := trace.ReadCompiled(f)
	check(err)
	return trace.NewRunReplay(ct, false, 0), f
}

// replayChecksum drains src for exactly instr instructions and hashes the
// stream. Replay sources pad with compute no-ops after exhaustion, so the
// caller's instruction count is the termination condition — the same
// contract the engine runs under.
func replayChecksum(src workload.RunSource, instr uint64) string {
	d := newDigest()
	var done uint64
	for done < instr {
		skipped, addr, mem := src.NextRun(int(min(instr-done, 1<<20)))
		done += uint64(skipped)
		if mem {
			done++
			d.put(uint64(skipped), addr)
		}
	}
	d.put(done)
	return d.String()
}

// runTrace synthesizes the fixture, writes its two containers, and measures
// every replay path.
func runTrace(reps int) []Point {
	dir, err := os.MkdirTemp("", "symbiosched-tracebench-")
	check(err)
	defer os.RemoveAll(dir)

	ct := synthTrace(traceMiB)
	fmt.Fprintf(os.Stderr, "trace: synthesized a %d MiB fixture (%d runs, %d instructions)\n",
		traceMiB, ct.MemRefs(), ct.Instructions())
	for file, write := range map[string]func(io.Writer, *trace.CompiledTrace) error{
		"raw.symc":   trace.WriteCompiled,
		"flate.symc": func(w io.Writer, ct *trace.CompiledTrace) error { return trace.WriteCompiledFrames(w, ct, 0, 0) },
	} {
		f, err := os.Create(filepath.Join(dir, file))
		check(err)
		check(write(f, ct))
		check(f.Close())
	}
	instr, refs := ct.Instructions(), ct.MemRefs()
	ct = nil // the benchmark reads the files, not the fixture

	var pts []Point
	for _, format := range []string{"compiled", "mmap", "compressed"} {
		name := fmt.Sprintf("%s %dMiB", format, traceMiB)
		replay := measure("trace", "replay "+name, reps, func() (func(), func() string) {
			src, c := openTrace(dir, format)
			var sum string
			return func() { sum = replayChecksum(src, instr) }, func() string { c.Close(); return sum }
		})
		replay.Info = map[string]float64{"mib_per_s": float64(refs*16) / (1 << 20) / (replay.MinMicros / 1e6)}
		if len(pts) > 0 && replay.Checksum != pts[1].Checksum {
			fatal(fmt.Errorf("trace: %s replays a different stream than %s (%s vs %s)",
				replay.Name, pts[1].Name, replay.Checksum, pts[1].Checksum))
		}

		open := measure("trace", "open "+name, reps, func() (func(), func() string) {
			var c io.Closer
			d := newDigest()
			return func() {
				var src workload.RunSource
				src, c = openTrace(dir, format)
				skip, addr, _ := src.NextRun(1 << 20)
				d.put(uint64(skip), addr)
			}, func() string { c.Close(); return d.String() }
		})
		pts = append(pts, open, replay)
	}
	return pts
}
