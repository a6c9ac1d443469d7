package trace

import (
	"fmt"
	"io"

	"symbiosched/internal/workload"
)

// FrameStreamReplay replays a framed-compressed v2 trace directly from its
// seekable source as a workload.RunSource, holding one inflated frame of
// records at a time: memory stays O(frameRuns) no matter how large the
// corpus file is, and once the largest frame has been inflated, replay —
// loop wraps included — allocates nothing.
//
// The emitted stream is bit-identical to NewRunReplay(ReadCompiled(src)):
// same runs, same tail handling, same compute padding after a non-looping
// exhaustion. A read or inflate error after construction is sticky: the
// stream turns into compute no-ops from the error point on (the simulator
// cannot unwind a half-simulated batch), Err reports it, and Rewind fails —
// so the experiments arena rebuilds rather than reusing a broken stream.
type FrameStreamReplay struct {
	src  io.ReadSeeker
	hdr  CompiledHeader
	loop bool
	base uint64

	lens      []int // compressed frame byte lengths
	dataStart int64 // file offset of frame 0; frames follow back to back
	cbuf      []byte
	runs      []Run // current inflated frame, reused across frames
	dec       frameDecoder

	frame   int // next frame to inflate
	pos     int // next undelivered run in runs
	pending uint64
	haveMem bool
	done    bool
	err     error
}

// NewFrameStreamReplay opens a streaming replay over a framed-compressed v2
// source. Header and frame index are validated eagerly; an unframed file is
// rejected (use OpenCompiled — it is already zero-decode).
func NewFrameStreamReplay(src io.ReadSeeker, loop bool, base uint64) (*FrameStreamReplay, error) {
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("trace: seek: %w", err)
	}
	hdr, err := ReadCompiledHeader(src)
	if err != nil {
		return nil, err
	}
	if !hdr.Framed {
		return nil, fmt.Errorf("trace: not a framed trace (mmap it with OpenCompiled instead)")
	}
	lens, err := readFrameIndex(src, hdr)
	if err != nil {
		return nil, err
	}
	return &FrameStreamReplay{
		src:       src,
		hdr:       hdr,
		loop:      loop,
		base:      base,
		lens:      lens,
		dataStart: int64(compiledHeaderSize) + int64(4*len(lens)),
	}, nil
}

// Err returns the sticky decode error, if any.
func (fs *FrameStreamReplay) Err() error { return fs.err }

// Header returns the source's v2 header.
func (fs *FrameStreamReplay) Header() CompiledHeader { return fs.hdr }

// inflateNext loads frame fs.frame into the run buffer. Frames are read in
// order, so only frame 0 seeks. The run buffer is sized only once the
// frame's bytes are in hand.
func (fs *FrameStreamReplay) inflateNext() {
	i := fs.frame
	if i == 0 {
		if _, err := fs.src.Seek(fs.dataStart, io.SeekStart); err != nil {
			fs.fail(fmt.Errorf("trace: seeking frame 0: %w", err))
			return
		}
	}
	var err error
	if fs.cbuf, err = readGrow(fs.src, fs.cbuf, fs.lens[i]); err != nil {
		fs.fail(fmt.Errorf("%w: frame %d truncated: %w", ErrCorrupt, i, err))
		return
	}
	lo, hi := fs.hdr.frameBounds(i)
	n := int(hi - lo)
	if cap(fs.runs) < n {
		fs.runs = make([]Run, n)
	}
	fs.runs = fs.runs[:n]
	fs.pos = 0
	if err := fs.dec.decode(fs.runs, fs.cbuf); err != nil {
		fs.fail(fmt.Errorf("trace: frame %d: %w", i, err))
		return
	}
	fs.frame++
}

func (fs *FrameStreamReplay) fail(err error) {
	if fs.err == nil {
		fs.err = err
	}
	fs.done = true
	fs.haveMem = false
}

// advance folds decoder state into (pending, haveMem), inflating frames and
// wrapping around as needed.
func (fs *FrameStreamReplay) advance() {
	for !fs.haveMem && !fs.done {
		if fs.pos < len(fs.runs) {
			fs.pending += fs.runs[fs.pos].Skip
			fs.haveMem = true
			return
		}
		if fs.frame < len(fs.lens) {
			fs.inflateNext()
			continue
		}
		// Every frame delivered: fold the tail, then wrap or finish.
		fs.pending += fs.hdr.Tail
		if !fs.loop || fs.hdr.MemRefs == 0 {
			fs.done = true
			return
		}
		fs.frame = 0
		fs.runs = fs.runs[:0]
		fs.pos = 0
	}
}

// NextRun implements workload.RunSource with Generator.NextRun's exact
// contract (see RunReplay.NextRun).
func (fs *FrameStreamReplay) NextRun(limit int) (skipped int, addr uint64, mem bool) {
	if limit <= 0 {
		return 0, 0, false
	}
	fs.advance()
	if fs.pending >= uint64(limit) {
		fs.pending -= uint64(limit)
		return limit, 0, false
	}
	if !fs.haveMem {
		fs.pending = 0
		return limit, 0, false
	}
	skipped = int(fs.pending)
	fs.pending = 0
	fs.haveMem = false
	addr = fs.runs[fs.pos].Line<<6 + fs.base
	fs.pos++
	return skipped, addr, true
}

// Next implements workload.RefSource.
func (fs *FrameStreamReplay) Next() workload.Ref {
	_, addr, mem := fs.NextRun(1)
	if mem {
		return workload.Ref{Addr: addr, Mem: true}
	}
	return workload.Ref{}
}

// Rewind implements workload.Rewinder, reusing the frame buffers in place.
// It reports false after a sticky failure.
func (fs *FrameStreamReplay) Rewind() bool {
	if fs.err != nil {
		return false
	}
	fs.frame, fs.pos = 0, 0
	fs.runs = fs.runs[:0]
	fs.pending = 0
	fs.haveMem, fs.done = false, false
	return true
}
