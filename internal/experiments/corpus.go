package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"symbiosched/internal/trace"
)

// A Corpus is a content-addressed view of a trace directory: every compiled
// trace keyed by its 16-hex FNV-1a content fingerprint, read from the v2
// header (identical for raw and framed containers of the same trace) — the
// value the trace pool puts into profile fingerprints, so a campaign's pool
// hash transitively pins the exact bytes a worker must fetch.

// TraceRef names one corpus entry: everything a worker needs to fetch,
// verify, and pool a trace it does not have locally.
type TraceRef struct {
	Name        string `json:"name"`        // profile name the trace contributes
	File        string `json:"file"`        // base file name (extension selects the container)
	Fingerprint string `json:"fingerprint"` // 16-hex content address
	Size        int64  `json:"size"`        // exact file size, for ranged resume
}

// Corpus indexes a trace directory by content fingerprint.
type Corpus struct {
	Dir  string
	Refs []TraceRef // in pool (name-sorted) order
	byFP map[string]TraceRef
}

// LoadCorpus builds the corpus for a trace directory: the same files, in the
// same order, with the same fingerprints the trace pools would compute.
func LoadCorpus(dir string) (*Corpus, error) {
	files, err := ListTraceDir(dir)
	if err != nil {
		return nil, err
	}
	c := &Corpus{Dir: dir, byFP: make(map[string]TraceRef, len(files))}
	for _, tf := range files {
		fp, size, err := TraceFileFingerprint(tf.Path)
		if err != nil {
			return nil, err
		}
		ref := TraceRef{Name: tf.Name, File: filepath.Base(tf.Path), Fingerprint: fp, Size: size}
		if prev, ok := c.byFP[fp]; ok {
			// Two names for identical content is legal in a directory but
			// ambiguous as an address; refuse rather than serve one of them.
			return nil, fmt.Errorf("experiments: traces %s and %s share fingerprint %s", prev.File, ref.File, fp)
		}
		c.byFP[fp] = ref
		c.Refs = append(c.Refs, ref)
	}
	return c, nil
}

// Lookup resolves a fingerprint to its corpus entry.
func (c *Corpus) Lookup(fingerprint string) (TraceRef, bool) {
	ref, ok := c.byFP[fingerprint]
	return ref, ok
}

// Path returns the on-disk location of a corpus entry.
func (c *Corpus) Path(ref TraceRef) string { return filepath.Join(c.Dir, ref.File) }

// TraceFileFingerprint returns the content fingerprint a compiled trace
// file's header records, and the file's size. A v1 capture fails with an
// error naming `tracegen -compile`.
func TraceFileFingerprint(path string) (fingerprint string, size int64, err error) {
	st, err := os.Stat(path)
	if err != nil {
		return "", 0, fmt.Errorf("experiments: %w", err)
	}
	hdr, err := readTraceHeader(path)
	if err != nil {
		return "", 0, err
	}
	return fmt.Sprintf("%016x", hdr.Fingerprint), st.Size(), nil
}

// VerifyTraceFile checks a fetched file against its corpus address: the size
// must match the ref and the content fingerprint must match exactly. The
// header's fingerprint alone would trust the header, so the trace content is
// re-hashed through trace.VerifyCompiled.
func VerifyTraceFile(path string, ref TraceRef) error {
	fp, size, err := TraceFileFingerprint(path)
	if err != nil {
		return err
	}
	if size != ref.Size {
		return fmt.Errorf("experiments: %s is %d bytes, corpus says %d", path, size, ref.Size)
	}
	if fp != ref.Fingerprint {
		return fmt.Errorf("experiments: %s has fingerprint %s, corpus says %s", path, fp, ref.Fingerprint)
	}
	mt, err := trace.OpenCompiled(path)
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	defer mt.Close()
	if err := trace.VerifyCompiled(mt.Trace(), mt.Header().Fingerprint); err != nil {
		return fmt.Errorf("experiments: %s: %w", path, err)
	}
	return nil
}

// TraceFilesFor maps corpus refs to the local files a worker cached, in ref
// order, ready for TracePoolFromFiles. It fails on the first missing file.
func TraceFilesFor(refs []TraceRef, pathFor func(TraceRef) string) ([]TraceFile, error) {
	files := make([]TraceFile, 0, len(refs))
	for _, ref := range refs {
		path := pathFor(ref)
		format, err := sniffFile(path)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		if format == trace.FormatUnknown {
			return nil, fmt.Errorf("experiments: %s: not a trace file", path)
		}
		files = append(files, TraceFile{Name: ref.Name, Path: path})
	}
	return files, nil
}
