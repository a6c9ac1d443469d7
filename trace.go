package symbio

import (
	"fmt"
	"io"

	"symbiosched/internal/trace"
	"symbiosched/internal/workload"
)

// Ref is one dynamic instruction of a reference stream: a compute operation
// (Mem false) or a memory access at Addr.
type Ref = workload.Ref

// RefSource produces an instruction stream (synthetic generator, trace
// replay, or a custom model).
type RefSource = workload.RefSource

// CompiledTrace is a trace in run-length form: one 16-byte record per memory
// reference instead of one Ref per instruction, and the shape the engine's
// fast batch loop replays directly (see ReplayTrace).
type CompiledTrace = trace.CompiledTrace

// RunReplay is a replay cursor over a CompiledTrace; it implements the
// engine's bulk RunSource interface, so replay simulates at generator speed
// rather than through per-instruction dispatch. Any number of cursors may
// share one compiled trace.
type RunReplay = trace.RunReplay

// ReplayTrace returns a fast replay cursor over a compiled trace. Loop wraps
// the stream forever; base is added to every replayed address (rebasing a
// trace captured in address space 1 into another process's space).
func ReplayTrace(ct *CompiledTrace, loop bool, base uint64) *RunReplay {
	return trace.NewRunReplay(ct, loop, base)
}

// CaptureTrace records n instructions of the named benchmark's reference
// stream (thread 0, address-space 1) into w as a compiled trace (the *.symc
// format cmd/tracegen writes). The scale divisor matches Options semantics:
// 16 is the experiment-grade machine, 64 the quick one.
func CaptureTrace(bench string, n uint64, regionDiv uint64, seed uint64, w io.Writer) error {
	p, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	if regionDiv == 0 {
		regionDiv = 16
	}
	if n == 0 {
		return fmt.Errorf("symbio: zero-length trace capture")
	}
	gens := p.NewThreads(1, seed, regionDiv)
	return trace.WriteCompiled(w, trace.CaptureRuns(gens[0], n))
}

// ReadTrace loads a compiled trace written by CaptureTrace (or cmd/tracegen),
// raw or framed-compressed.
func ReadTrace(r io.Reader) (*CompiledTrace, error) { return trace.ReadCompiled(r) }
