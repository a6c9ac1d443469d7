package trace

import (
	"testing"

	"symbiosched/internal/cache"
	"symbiosched/internal/engine"
	"symbiosched/internal/kernel"
	"symbiosched/internal/workload"
)

// A captured trace replayed through the simulator one instruction at a time
// (the Next-only view, stepped by workload.AsRunSource's adapter) must
// produce exactly the timing and cache statistics of the live generator it
// was captured from: addresses are line-granular in the trace, and the cache
// is line-granular too. The capture outlasts the run, so the batch that
// overshoots the target replays captured instructions rather than a wrap.
func TestReplayMatchesLiveSimulation(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const instr = 300_000
	liveCycles, liveStats := simulate(t, "gcc-live", prof.NewThreads(1, 9, 64)[0], instr)

	ct := CaptureRuns(prof.NewThreads(1, 9, 64)[0], 2*instr)
	cycles, stats := simulate(t, "gcc-replay", refOnly{NewRunReplay(ct, true, 0)}, instr)
	if cycles != liveCycles {
		t.Fatalf("replay diverged: live %d cycles, replay %d cycles", liveCycles, cycles)
	}
	if stats != liveStats {
		t.Fatalf("replay L2 stats diverged: %+v vs %+v", liveStats, stats)
	}
}

// Two trace-driven processes contend in the shared L2 like live ones.
func TestReplayedProcessesContend(t *testing.T) {
	mcf, _ := workload.ByName("mcf")
	lq, _ := workload.ByName("libquantum")
	mcfTrace := CaptureRuns(mcf.NewThreads(1, 5, 64)[0], 400_000)
	lqTrace := CaptureRuns(lq.NewThreads(2, 5, 64)[0], 400_000)

	run := func(aff []int) uint64 {
		procs := []*kernel.Process{
			kernel.SourceProcess(0, "mcf", NewRunReplay(mcfTrace, true, 0), 400_000),
			kernel.SourceProcess(1, "libquantum", NewRunReplay(lqTrace, true, 0), 400_000),
		}
		m := engine.New(engine.Config{
			Hierarchy:     cache.CoreDuoConfig().Scaled(64),
			QuantumCycles: 1_000_000,
		}, procs)
		m.SetAffinities(aff)
		m.Run(engine.RunOptions{})
		return procs[0].CompletionUser()
	}
	contended := run([]int{0, 1})
	isolated := run([]int{0, 0})
	if contended <= isolated {
		t.Fatalf("trace-driven mcf not slowed by co-runner: %d vs %d", contended, isolated)
	}
}
