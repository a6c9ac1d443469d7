package trace

import (
	"io"

	"symbiosched/internal/workload"
)

// Run is one run-length unit of a compiled trace: Skip compute instructions
// followed by one memory reference to line address Line. This is exactly the
// shape the codec stores on disk and the shape the engine's batch loop
// consumes (Generator.NextRun), so a compiled trace replays with no
// per-instruction work at all.
type Run struct {
	Skip uint64
	Line uint64
}

// CompiledTrace is a fully decoded trace in run-length form: one Run per
// memory reference (16 B each) plus the trailing compute-only Tail, so
// memory scales with memory references instead of instructions and replay
// touches one record per memory operation. A CompiledTrace is immutable once
// built; any number of RunReplay cursors may share one concurrently.
type CompiledTrace struct {
	Runs []Run
	Tail uint64 // compute instructions after the last memory reference

	instr      uint64
	sampleRate uint32 // every-Nth-reference capture rate; 0 means full rate
}

// Instructions returns the total dynamic instruction count of the trace.
func (ct *CompiledTrace) Instructions() uint64 { return ct.instr }

// MemRefs returns the number of memory references in the trace.
func (ct *CompiledTrace) MemRefs() uint64 { return uint64(len(ct.Runs)) }

// SampleRate returns the recorded capture rate: 1 for a full-rate trace, N
// when only every Nth memory reference was kept (see Downsample). The rate
// rides the v2 header so a corpus knows which traces are approximations.
func (ct *CompiledTrace) SampleRate() uint32 {
	if ct.sampleRate == 0 {
		return 1
	}
	return ct.sampleRate
}

// NewCompiled builds a compiled trace directly from run-length form — the
// path for synthetic fixtures (cmd/bench) and programmatic corpus
// construction. The instruction count is derived from the runs, exactly as
// Compile would have counted them. The runs slice is owned by the returned
// trace and must not be mutated afterwards.
func NewCompiled(runs []Run, tail uint64) *CompiledTrace {
	ct := &CompiledTrace{Runs: runs, Tail: tail, instr: tail}
	for i := range runs {
		ct.instr += runs[i].Skip + 1
	}
	return ct
}

// CaptureRuns draws n instructions from src in run-length form: the capture
// path from a live RunSource (a synthetic generator) to a trace, one NextRun
// call per memory reference. Byte addresses become line addresses (×1/64),
// the granularity every trace stores.
func CaptureRuns(src workload.RunSource, n uint64) *CompiledTrace {
	var runs []Run
	var pending uint64
	for left := n; left > 0; {
		skipped, addr, mem := src.NextRun(int(min(left, 1<<20)))
		pending += uint64(skipped)
		left -= uint64(skipped)
		if mem {
			runs = append(runs, Run{Skip: pending, Line: addr >> 6})
			pending = 0
			left--
		}
	}
	return NewCompiled(runs, pending)
}

// Compile imports a v1 varint trace (see trace.go) into run-length form.
// It is the only reader of v1; `tracegen -compile` converts v1 captures to
// the compiled format with it.
func Compile(r io.Reader) (*CompiledTrace, error) {
	tr := newReader(r)
	ct := &CompiledTrace{}
	for {
		skip, line, mem, err := tr.nextRun()
		if err == io.EOF {
			return ct, nil
		}
		if err != nil {
			return nil, err
		}
		if !mem {
			ct.Tail += skip
			ct.instr += skip
			continue
		}
		ct.Runs = append(ct.Runs, Run{Skip: skip, Line: line})
		ct.instr += skip + 1
	}
}

// RunReplay replays a compiled trace as a workload.RunSource: the engine's
// access loop consumes it one compute-run+memory-reference pair per call,
// mirroring Generator.NextRun. Loop wraps the stream around forever (the
// simulator restarts finished benchmarks); a non-looping replay pads
// with compute no-ops after exhaustion. Base is added to every replayed
// byte address, which is how a trace captured in address space 1 is rebased
// into another process's address space.
//
// NextRun(1) degenerates to per-instruction stepping, and the run
// boundaries carry over across arbitrary batch limits, so the emitted
// instruction sequence does not depend on how the caller batches it.
type RunReplay struct {
	ct   *CompiledTrace
	loop bool
	base uint64

	pos     int    // index of the run whose memory reference is owed next
	pending uint64 // compute instructions owed before the next event
	haveMem bool   // a memory reference (Runs[pos]) follows pending
	done    bool   // exhausted (non-looping, or no memory refs to loop over)
}

// NewRunReplay returns a replay cursor over ct. The compiled trace is shared,
// not copied; cursors never mutate it.
func NewRunReplay(ct *CompiledTrace, loop bool, base uint64) *RunReplay {
	return &RunReplay{ct: ct, loop: loop, base: base}
}

// advance folds trace state into (pending, haveMem): the next run's skip, or
// — at the end of the run list — the tail followed by a wrap or exhaustion.
func (rp *RunReplay) advance() {
	for !rp.haveMem && !rp.done {
		if rp.pos < len(rp.ct.Runs) {
			rp.pending += rp.ct.Runs[rp.pos].Skip
			rp.haveMem = true
			return
		}
		rp.pending += rp.ct.Tail
		if !rp.loop || len(rp.ct.Runs) == 0 {
			// A looping all-compute trace is an infinite compute stream —
			// identical to the exhausted padding below, so it terminates here
			// rather than accumulating pending forever.
			rp.done = true
			return
		}
		rp.pos = 0
	}
}

// NextRun implements workload.RunSource with Generator.NextRun's exact
// contract: up to limit instructions are consumed; when mem is true,
// skipped compute instructions plus the returned memory access were
// consumed (skipped+1 ≤ limit), otherwise exactly limit compute
// instructions were. State carries over so batch boundaries do not perturb
// the stream.
func (rp *RunReplay) NextRun(limit int) (skipped int, addr uint64, mem bool) {
	if limit <= 0 {
		return 0, 0, false
	}
	rp.advance()
	if rp.pending >= uint64(limit) {
		rp.pending -= uint64(limit)
		return limit, 0, false
	}
	if !rp.haveMem { // exhausted: pad with compute no-ops
		rp.pending = 0
		return limit, 0, false
	}
	skipped = int(rp.pending)
	rp.pending = 0
	rp.haveMem = false
	addr = rp.ct.Runs[rp.pos].Line<<6 + rp.base
	rp.pos++
	return skipped, addr, true
}

// Next implements workload.RefSource (the engine itself only calls
// NextRun).
func (rp *RunReplay) Next() workload.Ref {
	_, addr, mem := rp.NextRun(1)
	if mem {
		return workload.Ref{Addr: addr, Mem: true}
	}
	return workload.Ref{}
}

// Rewind implements workload.Rewinder: the cursor returns to the start of
// the trace in place, bit-identical to a fresh NewRunReplay — which is what
// lets trace-driven workloads ride the experiments arena cache.
func (rp *RunReplay) Rewind() bool {
	rp.pos, rp.pending = 0, 0
	rp.haveMem, rp.done = false, false
	return true
}
