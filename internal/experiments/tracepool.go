package experiments

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"symbiosched/internal/trace"
	"symbiosched/internal/workload"
)

// This file turns a directory of compiled traces (*.symc, raw or
// framed-compressed; cmd/tracegen writes them) into a benchmark pool: one
// single-threaded Profile per trace file, driven by run-length replay instead
// of synthetic generation. The pool plugs into every sweep entry point:
// Figure-style sweeps, shards, coordinator campaigns. A v1 capture (*.trc)
// is refused with an error naming its import path, `tracegen -compile`.
//
// Determinism caveats, which differ from synthetic pools:
//   - The instruction stream IS the capture. Config.Seed and the Region scale
//     divisor do not re-derive it; they still seed/scale any synthetic
//     profiles mixed into the same pool.
//   - InstrDiv still applies: it shortens the run target, so a scaled run
//     replays a prefix of the trace (looping if the target exceeds it).
//   - Pool identity is filename + content hash: shard headers and campaign
//     fingerprints include each trace's FNV-1a content fingerprint (from the
//     v2 header), so two pools that reuse a file name cannot be merged or
//     cache-aliased.
//   - Pool ordering is by trace name (base file name without extension),
//     never by filesystem iteration order, so the same directory produces the
//     same pool hash on every host and filesystem.

// TraceLogf receives warnings about files ListTraceDir skips (anything in a
// trace directory that does not carry a trace magic). It defaults to the
// standard logger; tests and tools replace it.
var TraceLogf = func(format string, args ...any) { log.Printf(format, args...) }

// traceAsidShift mirrors the workload package's address-space layout: process
// asid owns addresses [asid<<40, (asid+1)<<40). Traces are captured in address
// space 1 (tracegen and CaptureTrace build the generator with asid 1), so a
// replay for process asid rebases by (asid-1)<<40.
const traceAsidShift = 40

func traceBase(asid int) uint64 { return uint64(asid-1) << traceAsidShift }

// TraceFile is one pool entry: a trace container on disk plus the profile
// name it contributes.
type TraceFile struct {
	Name string // profile name: base file name without extension
	Path string
}

// ListTraceDir enumerates the trace files in dir — compiled traces and v1
// captures alike, recognised by their magic rather than their extension — in
// stable (name-sorted) order. Files that
// are not traces — editor droppings, checksum sidecars, partial downloads —
// are skipped with a TraceLogf warning instead of failing the pool; an
// unreadable file is still an error, as is a directory with no traces at all
// or two traces that would collide on one profile name.
func ListTraceDir(dir string) ([]TraceFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("experiments: trace dir: %w", err)
	}
	var files []TraceFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		format, err := sniffFile(path)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", path, err)
		}
		if format == trace.FormatUnknown {
			TraceLogf("experiments: skipping %s: not a trace file", path)
			continue
		}
		name := strings.TrimSuffix(e.Name(), filepath.Ext(e.Name()))
		files = append(files, TraceFile{Name: name, Path: path})
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("experiments: no trace files in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	for i := 1; i < len(files); i++ {
		if files[i].Name == files[i-1].Name {
			return nil, fmt.Errorf("experiments: traces %s and %s collide on profile name %q",
				files[i-1].Path, files[i].Path, files[i].Name)
		}
	}
	return files, nil
}

// sniffFile reads just enough of path to classify its container format.
func sniffFile(path string) (trace.Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.FormatUnknown, err
	}
	defer f.Close()
	var prefix [8]byte
	n, err := io.ReadFull(f, prefix[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return trace.FormatUnknown, err
	}
	return trace.SniffFormat(prefix[:n]), nil
}

// TracePoolFromDir builds a benchmark pool from every trace file in dir, fully
// resident (TracePoolFromFiles without streaming).
func TracePoolFromDir(dir string) ([]workload.Profile, error) {
	files, err := ListTraceDir(dir)
	if err != nil {
		return nil, err
	}
	return TracePoolFromFiles(files, false)
}

// TracePoolFromFiles builds a benchmark pool from compiled trace files, in
// list order. Each profile's fingerprint and counts come from its file's v2
// header. A raw file is mapped zero-decode (its pages are file-backed and
// shared across every process), and a framed one is inflated once, so that
// every process instantiated from the profile replays the shared records
// through an independent cursor — the fast-sweep case, where thousands of
// mix runs share one decode. With stream set, a framed file is instead
// re-read by each process through its own FrameStreamReplay, one frame at a
// time, so memory per live source is O(frame) whatever the trace size:
// the case for traces too large to hold resident.
//
// A streaming source opens its own file handle, which lives as long as its
// process set (the experiments arenas rewind sources in place, so a cached
// workload keeps its handles). MakeSources panics if the file has vanished
// since the pool was built: profile instantiation has no error path, and a
// vanished trace is unrecoverable.
func TracePoolFromFiles(files []TraceFile, stream bool) ([]workload.Profile, error) {
	pool := make([]workload.Profile, 0, len(files))
	for _, tf := range files {
		hdr, err := readTraceHeader(tf.Path)
		if err != nil {
			return nil, err
		}
		var ratio float64
		if hdr.Instr > 0 {
			ratio = float64(hdr.MemRefs) / float64(hdr.Instr)
		}
		p := workload.Profile{
			Name:         tf.Name,
			MemRatio:     ratio,
			Instructions: hdr.Instr,
			Threads:      1,
			Fingerprint:  fmt.Sprintf("%016x", hdr.Fingerprint),
		}
		if stream && hdr.Framed {
			p.MakeSources = func(asid int, _, _ uint64) []workload.RunSource {
				f, err := os.Open(tf.Path)
				if err != nil {
					panic(fmt.Sprintf("experiments: trace vanished after the pool was built: %v", err))
				}
				fs, err := trace.NewFrameStreamReplay(f, true, traceBase(asid))
				if err != nil {
					f.Close()
					panic(fmt.Sprintf("experiments: %s: %v", tf.Path, err))
				}
				return []workload.RunSource{fs}
			}
		} else {
			mt, err := trace.OpenCompiled(tf.Path)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			ct := mt.Trace()
			p.MakeSources = func(asid int, _, _ uint64) []workload.RunSource {
				return []workload.RunSource{trace.NewRunReplay(ct, true, traceBase(asid))}
			}
		}
		pool = append(pool, p)
	}
	return pool, nil
}

// readTraceHeader reads the v2 header of the trace file at path. A v1
// capture fails with an error naming `tracegen -compile`.
func readTraceHeader(path string) (trace.CompiledHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.CompiledHeader{}, fmt.Errorf("experiments: %w", err)
	}
	defer f.Close()
	hdr, err := trace.ReadCompiledHeader(f)
	if err != nil {
		return trace.CompiledHeader{}, fmt.Errorf("experiments: %s: %w", path, err)
	}
	return hdr, nil
}

// SelectProfiles returns the subset of pool matching names, in pool order,
// rejecting unknown names. It is how -pool restricts a trace-driven pool
// (synthetic pools resolve names through workload.ByName instead, which can
// build profiles from nothing; trace profiles only exist in their pool).
func SelectProfiles(pool []workload.Profile, names []string) ([]workload.Profile, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make([]workload.Profile, 0, len(names))
	for _, p := range pool {
		if want[p.Name] {
			out = append(out, p)
			delete(want, p.Name)
		}
	}
	if len(want) > 0 {
		missing := make([]string, 0, len(want))
		for n := range want {
			missing = append(missing, n)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("experiments: benchmarks not in trace pool: %s", strings.Join(missing, ", "))
	}
	return out, nil
}
