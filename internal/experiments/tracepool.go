package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"symbiosched/internal/trace"
	"symbiosched/internal/workload"
)

// This file turns a directory of captured traces (cmd/tracegen, trace.Capture)
// into a benchmark pool: one single-threaded Profile per trace file, driven by
// run-length replay instead of synthetic generation. Both trace containers are
// accepted — *.trc v1 varint captures and *.symc v2 compiled traces (raw or
// framed-compressed) — and the pool plugs into every sweep entry point:
// Figure-style sweeps, shards, coordinator campaigns.
//
// Determinism caveats, which differ from synthetic pools:
//   - The instruction stream IS the capture. Config.Seed and the Region scale
//     divisor do not re-derive it; they still seed/scale any synthetic
//     profiles mixed into the same pool.
//   - InstrDiv still applies: it shortens the run target, so a scaled run
//     replays a prefix of the trace (looping if the target exceeds it).
//   - Pool identity is filename + content hash: shard headers and campaign
//     fingerprints include each trace's FNV-1a fingerprint, so two pools that
//     reuse a file name cannot be merged or cache-aliased.
//   - Pool ordering is by trace name (base file name without extension),
//     never by filesystem iteration order, so the same directory produces the
//     same pool hash on every host and filesystem.

// traceExt is the v1 trace file extension the pool builders look for;
// trace.CompiledExt (".symc") marks v2 compiled traces.
const traceExt = ".trc"

// TraceLogf receives warnings about files the pool builders skip (anything in
// a trace directory that does not carry a trace magic). It defaults to the
// standard logger; tests and tools replace it.
var TraceLogf = func(format string, args ...any) { log.Printf(format, args...) }

// traceAsidShift mirrors the workload package's address-space layout: process
// asid owns addresses [asid<<40, (asid+1)<<40). Traces are captured in address
// space 1 (trace.Capture/CaptureTrace build the generator with asid 1), so a
// replay for process asid rebases by (asid-1)<<40.
const traceAsidShift = 40

func traceBase(asid int) uint64 { return uint64(asid-1) << traceAsidShift }

// TraceFile is one pool entry: a trace container on disk plus the profile
// name it contributes.
type TraceFile struct {
	Name   string // profile name: base file name without extension
	Path   string
	Format trace.Format
}

// ListTraceDir enumerates the trace files in dir in stable (name-sorted)
// order, classifying each by its magic rather than its extension. Files that
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
		files = append(files, TraceFile{Name: name, Path: path, Format: format})
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

// traceProfile fills the Profile fields shared by both pool flavours.
func traceProfile(name, fingerprint string, instr, memRefs uint64) workload.Profile {
	var ratio float64
	if instr > 0 {
		ratio = float64(memRefs) / float64(instr)
	}
	return workload.Profile{
		Name:         name,
		MemRatio:     ratio,
		Instructions: instr,
		Threads:      1,
		Fingerprint:  fingerprint,
	}
}

// TracePoolFromDir builds a benchmark pool from every trace file in dir,
// fully resident: v1 captures are decoded once into a shared run-length
// CompiledTrace (16 B per memory reference), v2 compiled traces are mapped
// zero-decode (raw) or inflated once (framed), and every process instantiated
// from the profile replays the shared records through an independent cursor.
// This is the fast-sweep flavour — thousands of mix runs share one decode.
// For traces too large to hold resident, use StreamingTracePoolFromDir.
func TracePoolFromDir(dir string) ([]workload.Profile, error) {
	files, err := ListTraceDir(dir)
	if err != nil {
		return nil, err
	}
	return TracePoolFromFiles(files)
}

// TracePoolFromFiles is TracePoolFromDir over an explicit file list, in list
// order. Corpus fetch paths use it to build a pool from cached downloads with
// the campaign's own ordering.
func TracePoolFromFiles(files []TraceFile) ([]workload.Profile, error) {
	pool := make([]workload.Profile, 0, len(files))
	for _, tf := range files {
		var (
			ct          *trace.CompiledTrace
			fingerprint string
		)
		switch tf.Format {
		case trace.FormatV1:
			data, err := os.ReadFile(tf.Path)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			h := fnv.New64a()
			h.Write(data)
			fingerprint = fmt.Sprintf("%016x", h.Sum64())
			if ct, err = trace.Compile(bytes.NewReader(data)); err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", tf.Path, err)
			}
		case trace.FormatCompiled:
			// The mapping (raw files on mmap hosts) lives as long as the pool:
			// its pages are file-backed and shared across every replay cursor.
			mt, err := trace.OpenCompiled(tf.Path)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", tf.Path, err)
			}
			ct = mt.Trace()
			fingerprint = fmt.Sprintf("%016x", mt.Header().Fingerprint)
		default:
			return nil, fmt.Errorf("experiments: %s: unknown trace format", tf.Path)
		}
		p := traceProfile(tf.Name, fingerprint, ct.Instructions(), ct.MemRefs())
		p.MakeSources = func(asid int, _, _ uint64) []workload.RunSource {
			return []workload.RunSource{trace.NewRunReplay(ct, true, traceBase(asid))}
		}
		pool = append(pool, p)
	}
	return pool, nil
}

// StreamingTracePoolFromDir builds the same pool as TracePoolFromDir but
// without holding decoded records on the heap: each file is scanned once up
// front (for the fingerprint and instruction counts — O(1) memory for v1
// captures, one 56-byte header read for v2), and every instantiated source
// re-reads the file on the fly. v1 captures stream through a bufRuns-run
// decode-ahead buffer (0 selects trace.DefaultStreamRuns); framed v2 traces
// hold one inflated frame at a time; raw v2 traces are mmapped, so their
// resident set is file-backed pages, not heap. Memory per live source is
// O(buffer) regardless of trace size, which is what makes multi-GB captures
// sweepable.
//
// Each streaming source opens its own file handle; handles live as long as
// their process set (the experiments arenas rewind sources in place via
// Rewind, so a cached workload keeps its handles) and are reclaimed with the
// sources. MakeSources panics if the file has disappeared since the scan —
// profile instantiation has no error path, and a vanished trace is
// unrecoverable.
func StreamingTracePoolFromDir(dir string, bufRuns int) ([]workload.Profile, error) {
	files, err := ListTraceDir(dir)
	if err != nil {
		return nil, err
	}
	return StreamingTracePoolFromFiles(files, bufRuns)
}

// StreamingTracePoolFromFiles is StreamingTracePoolFromDir over an explicit
// file list, in list order.
func StreamingTracePoolFromFiles(files []TraceFile, bufRuns int) ([]workload.Profile, error) {
	pool := make([]workload.Profile, 0, len(files))
	for _, tf := range files {
		tf := tf
		var p workload.Profile
		switch tf.Format {
		case trace.FormatV1:
			fingerprint, instr, memRefs, err := scanTrace(tf.Path)
			if err != nil {
				return nil, err
			}
			p = traceProfile(tf.Name, fingerprint, instr, memRefs)
			p.MakeSources = func(asid int, _, _ uint64) []workload.RunSource {
				f, err := os.Open(tf.Path)
				if err != nil {
					panic(fmt.Sprintf("experiments: trace vanished after scan: %v", err))
				}
				sr, err := trace.NewStreamReplay(f, bufRuns, true, traceBase(asid))
				if err != nil {
					f.Close()
					panic(fmt.Sprintf("experiments: %s: %v", tf.Path, err))
				}
				return []workload.RunSource{sr}
			}
		case trace.FormatCompiled:
			hf, err := os.Open(tf.Path)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			hdr, err := trace.ReadCompiledHeader(hf)
			hf.Close()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", tf.Path, err)
			}
			p = traceProfile(tf.Name, fmt.Sprintf("%016x", hdr.Fingerprint), hdr.Instr, hdr.MemRefs)
			if hdr.Framed {
				p.MakeSources = func(asid int, _, _ uint64) []workload.RunSource {
					f, err := os.Open(tf.Path)
					if err != nil {
						panic(fmt.Sprintf("experiments: trace vanished after scan: %v", err))
					}
					fs, err := trace.NewFrameStreamReplay(f, true, traceBase(asid))
					if err != nil {
						f.Close()
						panic(fmt.Sprintf("experiments: %s: %v", tf.Path, err))
					}
					return []workload.RunSource{fs}
				}
			} else {
				// Raw compiled: the mmap view is already as cheap as streaming
				// gets — map once, share the records across all cursors.
				mt, err := trace.OpenCompiled(tf.Path)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s: %w", tf.Path, err)
				}
				ct := mt.Trace()
				p.MakeSources = func(asid int, _, _ uint64) []workload.RunSource {
					return []workload.RunSource{trace.NewRunReplay(ct, true, traceBase(asid))}
				}
			}
		default:
			return nil, fmt.Errorf("experiments: %s: unknown trace format", tf.Path)
		}
		pool = append(pool, p)
	}
	return pool, nil
}

// scanTrace makes one sequential pass over a v1 trace file, computing the
// content fingerprint and the run-length statistics without retaining
// anything: the decoder reads through a TeeReader that feeds the hash, so the
// fingerprint is over the raw bytes — identical to TracePoolFromDir's.
func scanTrace(path string) (fingerprint string, instr, memRefs uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, 0, fmt.Errorf("experiments: %w", err)
	}
	defer f.Close()
	h := fnv.New64a()
	tr := trace.NewReader(io.TeeReader(f, h))
	for {
		skip, _, mem, err := tr.NextRun()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", 0, 0, fmt.Errorf("experiments: %s: %w", path, err)
		}
		instr += skip
		if mem {
			instr++
			memRefs++
		}
	}
	// Drain any bytes the decoder's buffer did not consume (there are none
	// today — NextRun reads to EOF — but the fingerprint must cover the whole
	// file regardless of decoder internals).
	if _, err := io.Copy(h, f); err != nil {
		return "", 0, 0, fmt.Errorf("experiments: %s: %w", path, err)
	}
	return fmt.Sprintf("%016x", h.Sum64()), instr, memRefs, nil
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
