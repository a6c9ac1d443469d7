package trace

import (
	"bytes"
	"testing"

	"symbiosched/internal/cache"
	"symbiosched/internal/engine"
	"symbiosched/internal/kernel"
	"symbiosched/internal/workload"
)

// refOnly hides the bulk RunSource interface, so kernel.SourceProcess wraps
// the same underlying stream in workload.AsRunSource's per-instruction
// adapter. It keeps Rewind so benchmark loops can reset workloads in place
// through the adapter.
type refOnly struct{ rp *RunReplay }

func (r refOnly) Next() workload.Ref { return r.rp.Next() }
func (r refOnly) Rewind() bool       { return r.rp.Rewind() }

func batchConfig() engine.Config {
	return engine.Config{
		Hierarchy:     cache.CoreDuoConfig().Scaled(64),
		QuantumCycles: 1_000_000,
	}
}

// contendedRun simulates two processes sharing the L2 (one per core) and
// returns their completion times plus the shared-L2 statistics — everything
// the access loop influences.
func contendedRun(t testing.TB, mk func(id int) workload.RefSource) (u0, u1 uint64, st cache.Stats) {
	t.Helper()
	procs := []*kernel.Process{
		kernel.SourceProcess(0, "p0", mk(0), 200_000),
		kernel.SourceProcess(1, "p1", mk(1), 200_000),
	}
	m := engine.New(batchConfig(), procs)
	m.SetAffinities([]int{0, 1})
	m.Run(engine.RunOptions{})
	return procs[0].CompletionUser(), procs[1].CompletionUser(), m.Hierarchy().L2For(0).Stats()
}

// TestBatchReplayMatchesBatchSrc pins the Next-only adapter against native
// NextRun: a RunSource replay consumed through its own NextRun is
// bit-identical — user times and shared-cache statistics — to the same
// stream consumed per instruction through workload.AsRunSource's adapter.
func TestBatchReplayMatchesBatchSrc(t *testing.T) {
	cts := []*CompiledTrace{captureBench(t, "mcf", 41, 150_000), captureBench(t, "libquantum", 43, 150_000)}

	fastU0, fastU1, fastStats := contendedRun(t, func(id int) workload.RefSource {
		return NewRunReplay(cts[id], true, uint64(id)<<40)
	})
	slowU0, slowU1, slowStats := contendedRun(t, func(id int) workload.RefSource {
		return refOnly{NewRunReplay(cts[id], true, uint64(id)<<40)}
	})
	if fastU0 != slowU0 || fastU1 != slowU1 {
		t.Fatalf("adapter diverged from native NextRun: user times (%d, %d) vs (%d, %d)",
			slowU0, slowU1, fastU0, fastU1)
	}
	if fastStats != slowStats {
		t.Fatalf("adapter diverged from native NextRun: L2 stats %+v vs %+v", slowStats, fastStats)
	}
}

// BenchmarkReplay compares the two ways a trace can feed the engine's access
// loop: its native bulk NextRun against a Next-only view stepped one
// instruction at a time by workload.AsRunSource's adapter. Both reuse
// machine and workload across iterations, so the delta is pure replay cost.
//
// The win scales with compute-run length — bulk retirement replaces one
// interface call per instruction with one per memory reference. "sparse"
// (5% memory ops, the compute-bound regime run-length encoding exists for)
// shows the loop's full >4× advantage; "mcf" (40% memory ops, the densest
// SPEC profile) is bounded by cache-access cost both paths share and lands
// around 1.4×. "stream" replays sparse through the O(frame) frame-streaming
// replay, pricing the re-inflate a multi-GB trace would pay.
func BenchmarkReplay(b *testing.B) {
	const instr = 500_000
	sparse := CaptureRuns(workload.NewGenerator(workload.GeneratorConfig{
		Pattern:  &workload.StreamPattern{Region: 1 << 16},
		MemRatio: 0.05,
		Seed:     51,
	}), instr)
	mcf := captureBench(b, "mcf", 51, instr)

	run := func(b *testing.B, src workload.RefSource) {
		procs := []*kernel.Process{kernel.SourceProcess(0, "replay", src, instr)}
		m := engine.New(batchConfig(), procs)
		m.SetAffinities([]int{0})
		b.SetBytes(instr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !kernel.ResetWorkload(procs) {
				b.Fatal("workload not rewindable")
			}
			m.Reset(procs)
			m.SetAffinities([]int{0})
			m.Run(engine.RunOptions{})
		}
	}
	for _, tc := range []struct {
		name string
		ct   *CompiledTrace
	}{{"sparse", sparse}, {"mcf", mcf}} {
		b.Run(tc.name+"/fast", func(b *testing.B) { run(b, NewRunReplay(tc.ct, true, 0)) })
		b.Run(tc.name+"/interface", func(b *testing.B) { run(b, refOnly{NewRunReplay(tc.ct, true, 0)}) })
	}
	b.Run("sparse/stream", func(b *testing.B) {
		fs, err := NewFrameStreamReplay(bytes.NewReader(framed(b, sparse, 0)), true, 0)
		if err != nil {
			b.Fatal(err)
		}
		run(b, fs)
	})
}
