package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"symbiosched/internal/experiments"
	"symbiosched/internal/kernel"
	"symbiosched/internal/trace"
	"symbiosched/internal/workload"
)

// writeCorpus builds the traced run's trace corpus: for each profile, one
// run of the thread fig10-synth simulates at cfg's scale and the given seed,
// drawn through Generator.NextRun and stored as a raw v2 compiled trace
// (<name>.symc), so the replay maps it without decoding.
func writeCorpus(dir string, names []string, seed uint64, cfg experiments.Config) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			return err
		}
		th := kernel.Workload([]workload.Profile{p}, seed, cfg.Scale())[0].Threads[0]
		gen, ok := th.Gen.(*workload.Generator)
		if !ok {
			return fmt.Errorf("%s: not a synthetic profile", name)
		}
		if err := writeCompiled(filepath.Join(dir, name+trace.CompiledExt), captureRuns(gen, th.InstrTarget)); err != nil {
			return err
		}
	}
	return nil
}

// captureRuns draws instr instructions from gen in run-length form.
func captureRuns(gen *workload.Generator, instr uint64) *trace.CompiledTrace {
	var runs []trace.Run
	var pending uint64
	for left := instr; left > 0; {
		skipped, addr, mem := gen.NextRun(int(min(left, 256)))
		pending += uint64(skipped)
		left -= uint64(skipped)
		if mem {
			runs = append(runs, trace.Run{Skip: pending, Line: addr >> 6})
			pending = 0
			left--
		}
	}
	return trace.NewCompiled(runs, pending)
}

func writeCompiled(path string, ct *trace.CompiledTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := trace.WriteCompiled(w, ct); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	// Written back before any clock starts, so that no pass times the
	// kernel flushing the corpus.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
