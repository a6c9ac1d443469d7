package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"symbiosched/internal/cache"
	"symbiosched/internal/engine"
	"symbiosched/internal/kernel"
	"symbiosched/internal/workload"
)

// simulate runs src as a single process on core 0 for instr instructions
// and returns its user completion cycles and the shared-L2 statistics.
func simulate(t *testing.T, name string, src workload.RefSource, instr uint64) (uint64, cache.Stats) {
	t.Helper()
	proc := kernel.SourceProcess(0, name, src, instr)
	m := engine.New(engine.Config{
		Hierarchy:     cache.CoreDuoConfig().Scaled(64),
		QuantumCycles: 1_000_000,
	}, []*kernel.Process{proc})
	m.SetAffinities([]int{0})
	m.Run(engine.RunOptions{})
	return proc.CompletionUser(), m.Hierarchy().L2For(0).Stats()
}

// TestReplayParityFourWay is the replay parity pin the tracecheck gate relies
// on: a capture driven through every replay path — compiled in-memory, mmap
// zero-decode, and framed-compressed (both the in-memory decode and the
// frame-streaming replay) — must produce exactly the simulation of the live
// generator it was captured from: identical user completion cycles and
// identical shared-L2 statistics, not merely close ones. The reference
// shares no code with the trace package. The capture holds twice the run's
// instructions, so the replays never wrap inside the batch that overshoots
// the run target, where the live generator would keep going.
func TestReplayParityFourWay(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	const instr = 250_000
	wantCycles, wantStats := simulate(t, "live", prof.NewThreads(1, 21, 64)[0], instr)

	ct := CaptureRuns(prof.NewThreads(1, 21, 64)[0], 2*instr)
	dir := t.TempDir()
	rawPath := filepath.Join(dir, "t.symc")
	framedPath := filepath.Join(dir, "t-framed.symc")
	writeFile := func(path string, write func(f *os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(rawPath, func(f *os.File) error { return WriteCompiled(f, ct) })
	writeFile(framedPath, func(f *os.File) error { return WriteCompiledFrames(f, ct, 4096, 0) })

	sources := map[string]workload.RefSource{}

	rawBytes, err := os.ReadFile(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadCompiled(bytes.NewReader(rawBytes))
	if err != nil {
		t.Fatal(err)
	}
	sources["compiled"] = NewRunReplay(decoded, true, 0)

	mt, err := OpenCompiled(rawPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	sources["mmap"] = NewRunReplay(mt.Trace(), true, 0)

	framedBytes, err := os.ReadFile(framedPath)
	if err != nil {
		t.Fatal(err)
	}
	framedCT, err := ReadCompiled(bytes.NewReader(framedBytes))
	if err != nil {
		t.Fatal(err)
	}
	sources["compressed"] = NewRunReplay(framedCT, true, 0)

	ff, err := os.Open(framedPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	fs, err := NewFrameStreamReplay(ff, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	sources["framestream"] = fs

	for name, src := range sources {
		cycles, stats := simulate(t, name, src, instr)
		if cycles != wantCycles {
			t.Errorf("%s: %d user cycles, the live generator took %d", name, cycles, wantCycles)
		}
		if stats != wantStats {
			t.Errorf("%s: L2 stats %+v, the live generator saw %+v", name, stats, wantStats)
		}
	}
	if fs.Err() != nil {
		t.Fatal(fs.Err())
	}
}
