package trace

// The v2 compiled on-disk format ("SYMTRC\x00" version 2, conventionally
// *.symc): a fixed-width header followed by the run-length payload in exactly
// the in-memory layout of CompiledTrace.Runs, so opening a compiled trace is
// an mmap plus a bounds-checked slice view (see mmapfile.go) and replay
// starts with zero decode cost. A capture (CaptureRuns) is written in it
// directly, and it is the only format a corpus stores and a sweep opens; v1
// captures are imported with Compile (`tracegen -compile`).
//
// Layout (all fields little-endian):
//
//	offset size field
//	0      8    magic "SYMTRC\x00" + version byte 2
//	8      4    flags (bit 0: framed flate compression)
//	12     4    sample rate (1 = full-rate capture, N = every Nth reference)
//	16     8    instruction count
//	24     8    memory reference count (= number of Run records)
//	32     8    trailing compute count (CompiledTrace.Tail)
//	40     8    FNV-1a content fingerprint (see Fingerprint)
//	48     4    runs per frame (0 when uncompressed)
//	52     4    frame count   (0 when uncompressed)
//	56     ...  payload
//
// Uncompressed payload: memRefs fixed-width 16 B records {skip u64, line
// u64}. The header is 56 bytes — a multiple of 16 — so the record array in a
// mapped file is 8-byte aligned and reinterpretable in place.
//
// Framed payload: a frame index of frameCount u32 compressed byte lengths,
// then the frames themselves — each an independent DEFLATE stream of up to
// frameRuns records (the last frame holds the remainder). Frames compress
// and decompress independently, so a corpus compile fans them out across a
// worker pool and a streaming replay holds one frame of memory at a time
// (see framestream.go).

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
	"unsafe"
)

// CompiledExt is the conventional file extension for the v2 compiled format.
const CompiledExt = ".symc"

var magic2 = [8]byte{'S', 'Y', 'M', 'T', 'R', 'C', 0, 2}

const (
	compiledHeaderSize = 56
	runSize            = 16
	flagFramed         = 1 << 0

	// DefaultFrameRuns is the default frame granularity: 64 Ki runs = 1 MiB
	// of records per frame, small enough that a streaming replay's resident
	// set stays cache-friendly and large enough that DEFLATE amortises.
	DefaultFrameRuns = 64 << 10

	// maxFrameRuns bounds the frame geometry a header may declare; beyond it
	// a "frame" is just the whole file and the independence that justifies
	// framing is gone, so a larger value only appears on corrupt input.
	maxFrameRuns = 64 << 20

	// deflateMaxRatio is DEFLATE's ceiling on decompressed bytes per
	// compressed byte (a 258-byte match coded in two bits): a frame whose
	// records need more is corrupt before a byte of it is inflated.
	deflateMaxRatio = 1032

	// readChunkBytes bounds how far a framed read allocates ahead of the
	// bytes it has read, so a count or length that lies about the stream
	// costs at most one chunk, not what it claims. A default frame (1 MiB
	// of records) compresses to 80–150 KiB, so it is read in one chunk.
	readChunkBytes = 256 << 10
)

// ErrNotCompiled reports a stream that is not a v2 compiled trace (wrong
// magic or version, or a v1 capture, which the error names as one).
var ErrNotCompiled = errors.New("trace: not a compiled (v2) trace")

// ErrCorrupt reports a compiled trace whose payload does not hold what its
// header claims: a truncated index, frame or record array, a frame too
// short for its records, a torn DEFLATE stream, or trailing bytes.
var ErrCorrupt = errors.New("trace: corrupt compiled payload")

// Format identifies a trace container.
type Format int

const (
	FormatUnknown  Format = iota
	FormatV1              // varint stream, "SYMTRC\x00" version 1
	FormatCompiled        // fixed-width compiled records, version 2
)

// SniffFormat classifies the first bytes of a trace file (8 or more decide).
func SniffFormat(prefix []byte) Format {
	if len(prefix) < 8 {
		return FormatUnknown
	}
	var got [8]byte
	copy(got[:], prefix)
	switch got {
	case magic:
		return FormatV1
	case magic2:
		return FormatCompiled
	}
	return FormatUnknown
}

// CompiledHeader is the decoded fixed-width v2 header.
type CompiledHeader struct {
	Framed      bool
	SampleRate  uint32
	Instr       uint64
	MemRefs     uint64
	Tail        uint64
	Fingerprint uint64
	FrameRuns   uint32
	FrameCount  uint32
}

// frameCountFor returns the number of frames the geometry implies.
func frameCountFor(memRefs uint64, frameRuns int) int {
	if memRefs == 0 {
		return 0
	}
	return int((memRefs + uint64(frameRuns) - 1) / uint64(frameRuns))
}

// frameBounds returns the record range [lo, hi) frame i of a framed trace
// covers.
func (h CompiledHeader) frameBounds(i int) (lo, hi uint64) {
	lo = uint64(i) * uint64(h.FrameRuns)
	return lo, min(lo+uint64(h.FrameRuns), h.MemRefs)
}

func (h CompiledHeader) encode(buf *[compiledHeaderSize]byte) {
	copy(buf[0:8], magic2[:])
	var flags uint32
	if h.Framed {
		flags |= flagFramed
	}
	binary.LittleEndian.PutUint32(buf[8:12], flags)
	binary.LittleEndian.PutUint32(buf[12:16], h.SampleRate)
	binary.LittleEndian.PutUint64(buf[16:24], h.Instr)
	binary.LittleEndian.PutUint64(buf[24:32], h.MemRefs)
	binary.LittleEndian.PutUint64(buf[32:40], h.Tail)
	binary.LittleEndian.PutUint64(buf[40:48], h.Fingerprint)
	binary.LittleEndian.PutUint32(buf[48:52], h.FrameRuns)
	binary.LittleEndian.PutUint32(buf[52:56], h.FrameCount)
}

// decodeCompiledHeader decodes and validates a v2 header from buf, which
// may be short: a v1 capture of any length is refused by name.
func decodeCompiledHeader(buf []byte) (CompiledHeader, error) {
	var h CompiledHeader
	format := SniffFormat(buf)
	if format == FormatV1 {
		return h, fmt.Errorf("%w: v1 varint trace (import it with tracegen -compile)", ErrNotCompiled)
	}
	if len(buf) < compiledHeaderSize {
		return h, fmt.Errorf("%w: truncated header (%d bytes)", ErrNotCompiled, len(buf))
	}
	if format != FormatCompiled {
		return h, fmt.Errorf("%w: bad magic", ErrNotCompiled)
	}
	flags := binary.LittleEndian.Uint32(buf[8:12])
	if flags&^uint32(flagFramed) != 0 {
		return h, fmt.Errorf("trace: unknown compiled-trace flags %#x", flags)
	}
	h.Framed = flags&flagFramed != 0
	h.SampleRate = binary.LittleEndian.Uint32(buf[12:16])
	h.Instr = binary.LittleEndian.Uint64(buf[16:24])
	h.MemRefs = binary.LittleEndian.Uint64(buf[24:32])
	h.Tail = binary.LittleEndian.Uint64(buf[32:40])
	h.Fingerprint = binary.LittleEndian.Uint64(buf[40:48])
	h.FrameRuns = binary.LittleEndian.Uint32(buf[48:52])
	h.FrameCount = binary.LittleEndian.Uint32(buf[52:56])
	if h.SampleRate == 0 {
		return h, errors.New("trace: compiled header has sample rate 0")
	}
	// The counts must be arithmetically consistent: instr is derivable from
	// the payload, so a header that disagrees with itself is corrupt before a
	// single record is read.
	if h.Instr < h.MemRefs || h.Instr-h.MemRefs < h.Tail {
		return h, fmt.Errorf("trace: compiled header counts inconsistent (%d instr, %d refs, %d tail)",
			h.Instr, h.MemRefs, h.Tail)
	}
	if h.Framed {
		if h.FrameRuns == 0 || h.FrameRuns > maxFrameRuns {
			return h, fmt.Errorf("trace: bad frame geometry (%d runs/frame)", h.FrameRuns)
		}
		if want := frameCountFor(h.MemRefs, int(h.FrameRuns)); int(h.FrameCount) != want {
			return h, fmt.Errorf("trace: frame count %d does not cover %d runs at %d runs/frame (want %d)",
				h.FrameCount, h.MemRefs, h.FrameRuns, want)
		}
	} else if h.FrameRuns != 0 || h.FrameCount != 0 {
		return h, errors.New("trace: frame geometry set on an unframed trace")
	}
	return h, nil
}

// header builds the v2 header for ct.
func (ct *CompiledTrace) header() CompiledHeader {
	return CompiledHeader{
		SampleRate:  ct.SampleRate(),
		Instr:       ct.instr,
		MemRefs:     uint64(len(ct.Runs)),
		Tail:        ct.Tail,
		Fingerprint: ct.Fingerprint(),
	}
}

// Fingerprint returns the trace's FNV-1a content fingerprint: the hash of
// the little-endian record payload followed by the little-endian tail. It is
// independent of container (raw vs framed compression hash identically),
// which is what lets a content-addressed corpus key both by one value.
func (ct *CompiledTrace) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [runSize]byte
	if b, ok := runsBytes(ct.Runs); ok {
		h.Write(b)
	} else {
		for _, r := range ct.Runs {
			binary.LittleEndian.PutUint64(buf[0:8], r.Skip)
			binary.LittleEndian.PutUint64(buf[8:16], r.Line)
			h.Write(buf[:])
		}
	}
	binary.LittleEndian.PutUint64(buf[0:8], ct.Tail)
	h.Write(buf[:8])
	return h.Sum64()
}

// hostLittleEndian reports whether the in-memory layout of a Run already is
// the on-disk layout, enabling the zero-decode reinterpret paths.
var hostLittleEndian = func() bool {
	if unsafe.Sizeof(Run{}) != runSize {
		return false
	}
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// runsBytes returns the raw byte view of a run slice when the host layout
// matches the on-disk layout (little-endian, no padding).
func runsBytes(runs []Run) ([]byte, bool) {
	if !hostLittleEndian || len(runs) == 0 {
		return nil, hostLittleEndian
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&runs[0])), len(runs)*runSize), true
}

// bytesRuns reinterprets a little-endian record payload as a []Run in place.
// The byte slice must stay alive (and unwritten) as long as the runs do;
// callers hand it mmap regions and decode buffers they own.
func bytesRuns(b []byte, n int) ([]Run, bool) {
	if !hostLittleEndian || n == 0 {
		return nil, hostLittleEndian && n == 0
	}
	if len(b) < n*runSize || uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(Run{}) != 0 {
		return nil, false
	}
	return unsafe.Slice((*Run)(unsafe.Pointer(&b[0])), n), true
}

// decodeRuns decodes n records from b into dst (the portable path).
func decodeRuns(dst []Run, b []byte) {
	for i := range dst {
		dst[i].Skip = binary.LittleEndian.Uint64(b[i*runSize:])
		dst[i].Line = binary.LittleEndian.Uint64(b[i*runSize+8:])
	}
}

// WriteCompiled writes ct in the uncompressed v2 format: header plus the
// fixed-width record payload. On little-endian hosts the payload is the
// in-memory run slice written directly — compiling a corpus is one header
// encode and one bulk write per trace.
func WriteCompiled(w io.Writer, ct *CompiledTrace) error {
	var hdr [compiledHeaderSize]byte
	ct.header().encode(&hdr)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: writing compiled header: %w", err)
	}
	if b, ok := runsBytes(ct.Runs); ok {
		if len(b) > 0 {
			if _, err := w.Write(b); err != nil {
				return fmt.Errorf("trace: writing compiled records: %w", err)
			}
		}
		return nil
	}
	bw := bufio.NewWriter(w)
	var rec [runSize]byte
	for _, r := range ct.Runs {
		binary.LittleEndian.PutUint64(rec[0:8], r.Skip)
		binary.LittleEndian.PutUint64(rec[8:16], r.Line)
		if _, err := bw.Write(rec[:]); err != nil {
			return fmt.Errorf("trace: writing compiled records: %w", err)
		}
	}
	return bw.Flush()
}

// WriteCompiledFrames writes ct in the framed-compressed v2 format:
// independent DEFLATE frames of frameRuns records (0 selects
// DefaultFrameRuns), compressed in parallel across workers goroutines (0
// selects GOMAXPROCS). The decoded result is bit-identical to the
// uncompressed form; only the at-rest bytes differ.
func WriteCompiledFrames(w io.Writer, ct *CompiledTrace, frameRuns, workers int) error {
	if frameRuns <= 0 {
		frameRuns = DefaultFrameRuns
	}
	if frameRuns > maxFrameRuns {
		frameRuns = maxFrameRuns
	}
	frames := frameCountFor(uint64(len(ct.Runs)), frameRuns)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > frames {
		workers = frames
	}

	h := ct.header()
	h.Framed = true
	h.FrameRuns = uint32(frameRuns)
	h.FrameCount = uint32(frames)

	// Compress every frame (in parallel — frames are independent by design),
	// then write header, index, frames. The index is the per-frame compressed
	// byte length; offsets are its prefix sums.
	compressed := make([][]byte, frames)
	var (
		wg   sync.WaitGroup
		next int
		mu   sync.Mutex
		ferr error
	)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= frames {
					return
				}
				lo := i * frameRuns
				hi := lo + frameRuns
				if hi > len(ct.Runs) {
					hi = len(ct.Runs)
				}
				buf, err := compressFrame(ct.Runs[lo:hi])
				if err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
					return
				}
				compressed[i] = buf
			}
		}()
	}
	wg.Wait()
	if ferr != nil {
		return ferr
	}

	var hdr [compiledHeaderSize]byte
	h.encode(&hdr)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: writing compiled header: %w", err)
	}
	index := make([]byte, 4*frames)
	for i, buf := range compressed {
		binary.LittleEndian.PutUint32(index[4*i:], uint32(len(buf)))
	}
	if _, err := w.Write(index); err != nil {
		return fmt.Errorf("trace: writing frame index: %w", err)
	}
	for _, buf := range compressed {
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("trace: writing frame: %w", err)
		}
	}
	return nil
}

// compressFrame DEFLATEs one frame of records.
func compressFrame(runs []Run) ([]byte, error) {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if b, ok := runsBytes(runs); ok {
		_, err = fw.Write(b)
	} else {
		var rec [runSize]byte
		for _, r := range runs {
			binary.LittleEndian.PutUint64(rec[0:8], r.Skip)
			binary.LittleEndian.PutUint64(rec[8:16], r.Line)
			if _, err = fw.Write(rec[:]); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("trace: compressing frame: %w", err)
	}
	if err := fw.Close(); err != nil {
		return nil, fmt.Errorf("trace: compressing frame: %w", err)
	}
	return buf.Bytes(), nil
}

// frameDecoder inflates frames one at a time, reusing its DEFLATE state and
// staging buffer from one frame to the next, so a decoder that has seen a
// frame of the largest size allocates nothing more.
type frameDecoder struct {
	src     bytes.Reader
	fr      io.ReadCloser
	scratch []byte  // portable-decode staging (non-little-endian hosts)
	extra   [1]byte // probe past the frame's end; a local would escape
}

// decode inflates data into exactly len(dst) records. Short frames, long
// frames and torn DEFLATE streams all error with ErrCorrupt — a frame must
// account for its record count precisely, and its stream must end cleanly.
func (d *frameDecoder) decode(dst []Run, data []byte) error {
	d.src.Reset(data)
	if d.fr == nil {
		d.fr = flate.NewReader(&d.src)
	} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return err
	}
	raw, ok := runsBytes(dst)
	if !ok {
		if cap(d.scratch) < len(dst)*runSize {
			d.scratch = make([]byte, len(dst)*runSize)
		}
		raw = d.scratch[:len(dst)*runSize]
	}
	if _, err := io.ReadFull(d.fr, raw); err != nil {
		return fmt.Errorf("%w: truncated frame: %w", ErrCorrupt, err)
	}
	switch n, err := d.fr.Read(d.extra[:]); {
	case n != 0:
		return fmt.Errorf("%w: frame decompresses past its record count", ErrCorrupt)
	case err != io.EOF:
		return fmt.Errorf("%w: torn frame stream: %w", ErrCorrupt, err)
	}
	if !ok {
		decodeRuns(dst, raw)
	}
	return nil
}

// readFrameIndex reads the frame index that follows a framed header, in
// chunks: the compressed byte length of each frame, each refused past what
// a DEFLATE stream of a full frame can need or short of what its records
// need at DEFLATE's best ratio.
func readFrameIndex(r io.Reader, h CompiledHeader) ([]int, error) {
	var lens []int
	var chunk []byte
	frameRuns := uint64(h.FrameRuns)
	for len(lens) < int(h.FrameCount) {
		var err error
		if chunk, err = readGrow(r, chunk, 4*min(int(h.FrameCount)-len(lens), readChunkBytes/4)); err != nil {
			return nil, fmt.Errorf("%w: frame index truncated: %w", ErrCorrupt, err)
		}
		for j := 0; j < len(chunk); j += 4 {
			i, n := len(lens), uint64(binary.LittleEndian.Uint32(chunk[j:]))
			// A DEFLATE stream of an incompressible 16·frameRuns-byte frame is
			// bounded by stored-block overhead: ~5 bytes per 64 KiB plus header.
			if max := frameRuns*runSize + frameRuns/2 + 64; n > max {
				return nil, fmt.Errorf("%w: frame %d claims %d compressed bytes (cap %d)", ErrCorrupt, i, n, max)
			}
			if lo, hi := h.frameBounds(i); (hi-lo)*runSize > deflateMaxRatio*n {
				return nil, fmt.Errorf("%w: frame %d claims %d records in %d compressed bytes", ErrCorrupt, i, hi-lo, n)
			}
			lens = append(lens, int(n))
		}
	}
	return lens, nil
}

// readGrow reads exactly n bytes from r into buf's backing array (reused
// when large enough), growing it at most readChunkBytes, or twice what has
// been read, ahead of the bytes read: a length that lies about the stream
// fails after allocating little more than the bytes that exist.
func readGrow(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		k := min(n-len(buf), readChunkBytes)
		if cap(buf)-len(buf) < k {
			grown := make([]byte, len(buf), min(n, max(2*len(buf), len(buf)+k)))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// readChunkRuns bounds the incremental allocation granularity of the
// stream-reading path, so a corrupt header claiming 2^60 records cannot make
// ReadCompiled allocate ahead of the bytes that actually exist.
const readChunkRuns = 1 << 20

// ReadCompiled decodes a v2 compiled trace (either container) from r into
// memory. This is the portable open path — OpenCompiled is the mmap fast
// path for uncompressed files. Framed payloads decompress in parallel.
func ReadCompiled(r io.Reader) (*CompiledTrace, error) {
	h, err := ReadCompiledHeader(r)
	if err != nil {
		return nil, err
	}
	if h.Framed {
		return readFramed(r, h)
	}
	ct := &CompiledTrace{Tail: h.Tail, instr: h.Instr, sampleRate: h.SampleRate}
	// Read in bounded chunks: a header count beyond the stream's real length
	// fails with a truncation error after at most one chunk of over-allocation.
	remaining := h.MemRefs
	first := remaining
	if first > readChunkRuns {
		first = readChunkRuns
	}
	ct.Runs = make([]Run, 0, first)
	var scratch []byte
	for remaining > 0 {
		n := remaining
		if n > readChunkRuns {
			n = readChunkRuns
		}
		base := len(ct.Runs)
		ct.Runs = append(ct.Runs, make([]Run, n)...)
		sect := ct.Runs[base:]
		if b, ok := runsBytes(sect); ok {
			_, err = io.ReadFull(r, b)
		} else {
			if uint64(len(scratch)) < n*runSize {
				scratch = make([]byte, n*runSize)
			}
			if _, err = io.ReadFull(r, scratch[:n*runSize]); err == nil {
				decodeRuns(sect, scratch[:n*runSize])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%w: payload truncated (%d of %d records): %w",
				ErrCorrupt, uint64(base), h.MemRefs, err)
		}
		remaining -= n
	}
	if err := expectEOF(r); err != nil {
		return nil, err
	}
	return validateCounts(ct, h)
}

// readFramed decodes the framed container: frame index, then all frames into
// memory, then parallel inflate straight into the final run slice. The runs
// are allocated only once every frame's bytes are in hand, which the index
// checks bound to DEFLATE's ratio of the records they claim.
func readFramed(r io.Reader, h CompiledHeader) (*CompiledTrace, error) {
	lens, err := readFrameIndex(r, h)
	if err != nil {
		return nil, err
	}
	frames := len(lens)
	// Frames are read sequentially (r need not seek) but inflate in parallel.
	data := make([][]byte, frames)
	for i, n := range lens {
		if data[i], err = readGrow(r, nil, n); err != nil {
			return nil, fmt.Errorf("%w: frame %d truncated: %w", ErrCorrupt, i, err)
		}
	}
	if err := expectEOF(r); err != nil {
		return nil, err
	}
	ct := &CompiledTrace{
		Runs:       make([]Run, h.MemRefs),
		Tail:       h.Tail,
		instr:      h.Instr,
		sampleRate: h.SampleRate,
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > frames {
		workers = frames
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		ferr error
	)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dec frameDecoder
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= frames {
					return
				}
				lo, hi := h.frameBounds(i)
				if err := dec.decode(ct.Runs[lo:hi], data[i]); err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = fmt.Errorf("trace: frame %d: %w", i, err)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if ferr != nil {
		return nil, ferr
	}
	return validateCounts(ct, h)
}

// validateCounts cross-checks the decoded payload against the header's
// arithmetic: the instruction count must equal sum(skip)+refs+tail. The
// fingerprint is deliberately NOT recomputed here — opening stays cheap; use
// VerifyCompiled when provenance matters (corpus fetches do).
func validateCounts(ct *CompiledTrace, h CompiledHeader) (*CompiledTrace, error) {
	var instr uint64
	for i := range ct.Runs {
		instr += ct.Runs[i].Skip + 1
	}
	instr += ct.Tail
	if instr != h.Instr {
		return nil, fmt.Errorf("%w: header claims %d instructions, payload sums to %d", ErrCorrupt, h.Instr, instr)
	}
	return ct, nil
}

// expectEOF errors when r still has bytes — a compiled trace accounts for
// every byte it contains.
func expectEOF(r io.Reader) error {
	var b [1]byte
	if n, _ := r.Read(b[:]); n != 0 {
		return fmt.Errorf("%w: trailing bytes after the payload", ErrCorrupt)
	}
	return nil
}

// ReadCompiledHeader reads just the 56-byte header — the O(1) metadata probe
// the trace pools and the corpus use.
func ReadCompiledHeader(r io.Reader) (CompiledHeader, error) {
	var hdr [compiledHeaderSize]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil && SniffFormat(hdr[:n]) != FormatV1 {
		return CompiledHeader{}, fmt.Errorf("%w: %v", ErrNotCompiled, err)
	}
	return decodeCompiledHeader(hdr[:n])
}

// VerifyCompiled recomputes ct's content fingerprint and checks it against
// the header value want. Fetch paths call this after materialising a trace
// from untrusted bytes.
func VerifyCompiled(ct *CompiledTrace, want uint64) error {
	if got := ct.Fingerprint(); got != want {
		return fmt.Errorf("trace: content fingerprint %016x, header claims %016x", got, want)
	}
	return nil
}
