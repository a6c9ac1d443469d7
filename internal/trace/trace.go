// Package trace records and replays instruction streams. The paper's
// methodology separates signature gathering from execution; traces make that
// split externally visible: a workload's reference stream can be captured
// once (or imported from a real system) and replayed deterministically
// through the simulator, substituting for the proprietary SPEC traces the
// original evaluation used.
//
// Traces live on disk in the compiled v2 format (compiled.go, *.symc).
// CaptureRuns draws a live RunSource straight into a CompiledTrace; replay
// opens it zero-decode (OpenCompiled), in memory (ReadCompiled) or one frame
// at a time (FrameStreamReplay).
//
// The older v1 varint stream this file decodes is import-only: Compile turns
// a v1 capture into a CompiledTrace, and nothing else reads it. Format
// (little-endian, after an 8-byte header "SYMTRC\x00" + version 1): a
// sequence of records, each encoding one memory reference as
//
//	gap    uvarint — number of compute (non-memory) instructions preceding it
//	delta  svarint — line-address delta from the previous memory reference
//
// The stream ends at EOF. A record whose gap is the reserved tailMarker
// carries, in its delta field, a run of compute instructions that no memory
// reference follows.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

var magic = [8]byte{'S', 'Y', 'M', 'T', 'R', 'C', 0, 1}

// tailMarker flags a trailing run of compute instructions with no following
// memory reference.
const tailMarker = ^uint64(0) >> 1

// reader decodes a v1 stream one run at a time in O(1) memory.
type reader struct {
	r        *bufio.Reader
	checked  bool
	lastLine uint64
	done     bool
}

func newReader(r io.Reader) *reader {
	return &reader{r: bufio.NewReader(r)}
}

func (tr *reader) checkMagic() error {
	if tr.checked {
		return nil
	}
	var got [8]byte
	if _, err := io.ReadFull(tr.r, got[:]); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if got != magic {
		return errors.New("trace: bad magic (not a symbiosched trace)")
	}
	tr.checked = true
	return nil
}

// nextRun returns the next run of the trace — skip compute instructions
// followed, when mem is true, by one memory reference to line (a line
// address; ×64 for bytes). A final compute-only run is returned once with
// mem false; after the trace is exhausted nextRun returns io.EOF.
func (tr *reader) nextRun() (skip, line uint64, mem bool, err error) {
	if err := tr.checkMagic(); err != nil {
		return 0, 0, false, err
	}
	for !tr.done {
		gap, err := binary.ReadUvarint(tr.r)
		if err == io.EOF {
			tr.done = true
			break
		}
		if err != nil {
			return 0, 0, false, fmt.Errorf("trace: %w", err)
		}
		delta, err := binary.ReadVarint(tr.r)
		if err != nil {
			return 0, 0, false, fmt.Errorf("trace: truncated record: %w", err)
		}
		if gap == tailMarker {
			if delta < 0 {
				// A negative count reinterpreted as uint64 would be ~2^64
				// pending compute instructions: a corrupt (or adversarial)
				// file must not turn into an unbounded compute stream.
				return 0, 0, false, fmt.Errorf("trace: corrupt tail marker (negative count %d)", delta)
			}
			skip += uint64(delta) // merge marker runs into the current gap
			continue
		}
		tr.lastLine = uint64(int64(tr.lastLine) + delta)
		return skip + gap, tr.lastLine, true, nil
	}
	if skip > 0 {
		return skip, 0, false, nil
	}
	return 0, 0, false, io.EOF
}
