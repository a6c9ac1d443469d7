// Command tracegen captures synthetic benchmark reference streams into the
// compiled trace format (internal/trace, *.symc), imports v1 varint captures
// (*.trc) into it, and inspects compiled traces. Traces decouple workload
// generation from simulation: a captured (or externally produced) trace can
// be replayed through the cache simulator.
//
// Usage:
//
//	tracegen -bench mcf -n 1000000 -o mcf.symc     # capture
//	tracegen -compile dir/                         # every trace in dir → *.symc
//	tracegen -compile mcf.trc -compress            # one file, framed flate
//	tracegen -compile dir/ -sample 4               # every-4th-reference corpus
//	tracegen -inspect mcf.symc                     # summarise a compiled trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"symbiosched/internal/experiments"
	"symbiosched/internal/trace"
	"symbiosched/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark profile to capture")
	n := flag.Uint64("n", 1_000_000, "instructions to capture")
	out := flag.String("o", "", "output trace file (capture; default <bench>.symc) or directory (compile; default: alongside the input)")
	div := flag.Uint64("scale", 16, "region scale divisor")
	seed := flag.Uint64("seed", 42, "workload seed")
	inspect := flag.String("inspect", "", "compiled trace file to summarise")
	compile := flag.String("compile", "", "trace file or directory (v1 captures or compiled traces) to compile into the v2 corpus format (*.symc)")
	compress := flag.Bool("compress", false, "with -compile: framed flate compression instead of raw mmap-ready records")
	frameRuns := flag.Int("frame-runs", 0, "with -compress: records per independent frame (0 = 64Ki)")
	sample := flag.Int("sample", 1, "with -compile: keep every Nth memory reference, folding the rest into compute gaps (recorded in the header)")
	workers := flag.Int("workers", 0, "with -compile: parallel compile workers (0 = GOMAXPROCS)")
	flag.Parse()

	switch {
	case *inspect != "":
		if err := doInspect(*inspect); err != nil {
			fatal(err)
		}
	case *compile != "":
		if err := doCompile(*compile, *out, *compress, *frameRuns, *sample, *workers); err != nil {
			fatal(err)
		}
	case *bench != "":
		if *out == "" {
			*out = *bench + trace.CompiledExt
		}
		if err := doCapture(*bench, *out, *n, *div, *seed); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

func doCapture(bench, out string, n, div, seed uint64) error {
	p, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	gens := p.NewThreads(1, seed, div)
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := trace.WriteCompiled(f, trace.CaptureRuns(gens[0], n)); err != nil {
		f.Close()
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	// Close exactly once, and only after the capture flushed: the close error
	// is the write error on a full disk.
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("captured %d instructions of %s (thread 0/%d) to %s (%d bytes)\n",
		n, bench, len(gens), out, st.Size())
	return nil
}

// doCompile converts one trace file — or every trace in a directory, in
// parallel — into the v2 compiled format. The input may be a v1 capture or
// an existing v2 file (recompiling changes container or sample rate). With
// -sample N only every Nth memory reference is kept; the downsampled file
// records the rate in its header and the conversion prints the footprint
// coverage against the full-rate original, the validation bound
// EXPERIMENTS.md documents.
func doCompile(in, outDir string, compress bool, frameRuns, sample, workers int) error {
	st, err := os.Stat(in)
	if err != nil {
		return err
	}
	var files []experiments.TraceFile
	if st.IsDir() {
		if files, err = experiments.ListTraceDir(in); err != nil {
			return err
		}
	} else {
		files = []experiments.TraceFile{{Name: strings.TrimSuffix(filepath.Base(in), filepath.Ext(in)), Path: in}}
	}

	if workers <= 0 {
		workers = len(files)
	}
	if workers > len(files) {
		workers = len(files)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		ferr error
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(files) {
					return
				}
				if err := compileOne(files[i], outDir, compress, frameRuns, sample); err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if ferr != nil {
		return ferr
	}
	fmt.Printf("compiled %d trace(s) in %v\n", len(files), time.Since(start).Round(time.Millisecond))
	return nil
}

func compileOne(tf experiments.TraceFile, outDir string, compress bool, frameRuns, sample int) error {
	f, err := os.Open(tf.Path)
	if err != nil {
		return err
	}
	var ct *trace.CompiledTrace
	var prefix [8]byte
	if _, err := io.ReadFull(f, prefix[:]); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", tf.Path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	switch trace.SniffFormat(prefix[:]) {
	case trace.FormatCompiled:
		ct, err = trace.ReadCompiled(f)
	default:
		ct, err = trace.Compile(f)
	}
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", tf.Path, err)
	}

	if sample > 1 {
		full := ct
		if ct, err = trace.Downsample(full, sample); err != nil {
			return fmt.Errorf("%s: %w", tf.Path, err)
		}
		fmt.Printf("%s: downsampled 1/%d: %d -> %d refs, footprint coverage %.3f\n",
			tf.Path, sample, full.MemRefs(), ct.MemRefs(), trace.DownsampleCoverage(full, ct))
	}

	dir := outDir
	if dir == "" {
		dir = filepath.Dir(tf.Path)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	outPath := filepath.Join(dir, tf.Name+trace.CompiledExt)
	of, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if compress {
		err = trace.WriteCompiledFrames(of, ct, frameRuns, 0)
	} else {
		err = trace.WriteCompiled(of, ct)
	}
	if err != nil {
		of.Close()
		return fmt.Errorf("%s: %w", outPath, err)
	}
	if err := of.Close(); err != nil {
		return err
	}
	st, err := os.Stat(outPath)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d instructions, %d refs -> %s (%d bytes, fingerprint %016x)\n",
		tf.Path, ct.Instructions(), ct.MemRefs(), outPath, st.Size(), ct.Fingerprint())
	return nil
}

// doInspect summarises a compiled trace from its header plus (for the line
// statistics) one decode of the records — the mmap path when the file is raw.
func doInspect(path string) error {
	mt, err := trace.OpenCompiled(path)
	if err != nil {
		return err
	}
	defer mt.Close()
	hdr, ct := mt.Header(), mt.Trace()

	container := "raw (mmap-ready)"
	if hdr.Framed {
		container = fmt.Sprintf("framed flate (%d frames x %d runs)", hdr.FrameCount, hdr.FrameRuns)
	} else if mt.Mapped() {
		container = "raw (mapped zero-decode)"
	}
	fmt.Printf("%s: compiled v2, %s, sample rate 1/%d, fingerprint %016x\n",
		path, container, hdr.SampleRate, hdr.Fingerprint)

	var lo, hi, longestRun uint64
	first := true
	for i := range ct.Runs {
		r := &ct.Runs[i]
		if r.Skip > longestRun {
			longestRun = r.Skip
		}
		if first || r.Line < lo {
			lo = r.Line
		}
		if first || r.Line > hi {
			hi = r.Line
		}
		first = false
	}
	distinct := ct.Lines().Count()
	fmt.Printf("%s: %d instructions, %d memory refs (%.1f%%), %d distinct lines",
		path, ct.Instructions(), ct.MemRefs(),
		100*float64(ct.MemRefs())/float64(max(ct.Instructions(), 1)), distinct)
	if !first {
		avgRun := float64(ct.Instructions()-ct.MemRefs()-ct.Tail) / float64(ct.MemRefs())
		fmt.Printf(", footprint %d KiB, line range [%#x, %#x]", distinct*64/1024, lo, hi)
		fmt.Printf("\n%s: %d runs (avg %.1f computes/run, longest %d), %d trailing computes, resident size %d KiB",
			path, ct.MemRefs(), avgRun, longestRun, ct.Tail, ct.MemRefs()*16/1024)
	}
	fmt.Println()
	return nil
}
