package coordctl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"symbiosched/internal/experiments"
)

// The write-ahead journal is the coordinator's durable state: every accepted
// campaign spec, every accepted shard, and every cancellation is appended as
// one checksummed JSON line and fsynced before the coordinator acknowledges
// the event. A restarted coordinator replays the journal and resumes its
// campaigns exactly where they stopped — accepted shards are never re-leased
// or recomputed, so the resumed campaign's final report is byte-identical to
// the uninterrupted run.
//
// On-disk format: one record per line, `<crc32 hex> <json>\n`, crc32 (IEEE)
// over the JSON bytes exactly as written. The framing makes crash recovery
// mechanical: a crash mid-append leaves an unterminated (or checksum-failing)
// final line, which Open detects as a torn tail and truncates — the record
// being written when the process died was by definition unacknowledged, so
// dropping it loses nothing. Damage anywhere *before* the final record is not
// a crash artifact and is reported as ErrJournalCorrupt instead of being
// silently skipped.

// JournalRecord is one durable coordinator event.
type JournalRecord struct {
	// Kind is "campaign" (a campaign was accepted), "shard" (a shard
	// submission was accepted into the campaign's merge) or "cancel".
	Kind string `json:"kind"`
	// Campaign is the campaign id the record belongs to.
	Campaign string `json:"campaign"`
	// Spec is the resolved campaign descriptor (kind "campaign" only). It
	// carries the pool/config fingerprints computed at submission time, so a
	// resumed campaign validates workers against the original content even
	// if the trace directory has changed since.
	Spec *Campaign `json:"spec,omitempty"`
	// Combos is the campaign's combination-space size, resolved at
	// submission time (kind "campaign" only). Replay sizes the resumed
	// campaign from this value instead of re-resolving the pool, so a trace
	// campaign restarts even when its trace directory has moved or changed
	// since — the journal, not the environment, is the source of truth.
	Combos int `json:"combos,omitempty"`
	// Submitted is when the campaign was accepted (kind "campaign" only).
	// Replay restores it, so a restarted daemon reports a campaign's age
	// from its submission, not from the restart. Journals written before
	// the field existed replay with the restart's clock.
	Submitted time.Time `json:"submitted,omitzero"`
	// Shard is the accepted shard, outcomes included (kind "shard" only) —
	// the journal is the durable copy of the merge, not just an index of it.
	Shard *experiments.Shard `json:"shard,omitempty"`
}

// Journal record kinds.
const (
	recordCampaign = "campaign"
	recordShard    = "shard"
	recordCancel   = "cancel"
)

// ErrJournalCorrupt marks a journal whose non-tail records are damaged —
// unlike a torn tail (a crash artifact, recovered automatically), mid-file
// damage means the file was altered or the disk lied, and the coordinator
// refuses to guess which campaigns survived.
var ErrJournalCorrupt = errors.New("coordctl: journal corrupt")

// journalFile is the journal's name under the coordinator's -state-dir.
const journalFile = "journal.jsonl"

// Journal is an append-only, fsync-on-append record log.
type Journal struct {
	path    string
	f       *os.File
	size    int64
	records int
}

// JournalPath returns the journal file path under a state directory.
func JournalPath(stateDir string) string { return filepath.Join(stateDir, journalFile) }

// OpenJournal opens (creating as needed) the journal under stateDir, replays
// it, truncates a torn tail record if the last append was cut by a crash, and
// returns the journal ready for appending together with the recovered
// records, in append order.
func OpenJournal(stateDir string) (*Journal, []JournalRecord, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("coordctl: state dir: %w", err)
	}
	path := JournalPath(stateDir)
	recs, valid, total, err := scanJournal(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("coordctl: journal: %w", err)
	}
	if valid < total {
		// Torn tail: the crash interrupted the final append. Cut the file
		// back to the last acknowledged record before appending anything.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("coordctl: truncating torn journal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("coordctl: journal: %w", err)
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("coordctl: journal: %w", err)
	}
	return &Journal{path: path, f: f, size: valid, records: len(recs)}, recs, nil
}

// ReadJournal replays a journal file without opening it for writing: the
// records up to (not including) any torn tail. Used by tests and the
// load-smoke harness to reconcile server state against the durable log.
func ReadJournal(path string) ([]JournalRecord, error) {
	recs, _, _, err := scanJournal(path)
	return recs, err
}

// scanJournal parses the journal at path, returning the valid records, the
// byte offset where the valid prefix ends, and the file's total size. A
// damaged *final* record (torn tail) is excluded from the valid prefix; a
// damaged earlier record is ErrJournalCorrupt.
func scanJournal(path string) (recs []JournalRecord, valid, total int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, fmt.Errorf("coordctl: journal: %w", err)
	}
	total = int64(len(data))
	offset := 0
	for offset < len(data) {
		nl := bytes.IndexByte(data[offset:], '\n')
		if nl < 0 {
			// Unterminated final line: the append died before its newline.
			return recs, int64(offset), total, nil
		}
		line := data[offset : offset+nl]
		rec, perr := parseJournalLine(line)
		if perr != nil {
			if offset+nl+1 == len(data) {
				// The damaged line is the final record: a torn tail whose
				// newline happened to make it to disk. Same recovery.
				return recs, int64(offset), total, nil
			}
			return nil, 0, total, fmt.Errorf("coordctl: journal record %d at byte %d: %v: %w",
				len(recs), offset, perr, ErrJournalCorrupt)
		}
		recs = append(recs, rec)
		offset += nl + 1
	}
	return recs, int64(offset), total, nil
}

// parseJournalLine validates one `<crc32 hex> <json>` line.
func parseJournalLine(line []byte) (JournalRecord, error) {
	var rec JournalRecord
	if len(line) < 10 || line[8] != ' ' {
		return rec, fmt.Errorf("short or unframed record")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return rec, fmt.Errorf("bad checksum field: %v", err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return rec, fmt.Errorf("checksum %08x, record claims %08x", got, want)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("bad record JSON: %v", err)
	}
	switch rec.Kind {
	case recordCampaign, recordShard, recordCancel:
	default:
		return rec, fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	if rec.Campaign == "" {
		return rec, fmt.Errorf("record without a campaign id")
	}
	return rec, nil
}

// Append durably writes one record: marshal, frame, write, fsync. The record
// is on disk before Append returns — the caller may acknowledge the event.
func (j *Journal) Append(rec JournalRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("coordctl: journal: %w", err)
	}
	line := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	if _, err := j.f.WriteString(line); err != nil {
		// Best effort: drop whatever partial bytes made it out, so a later
		// append does not land mid-record. Replay would recover regardless.
		j.f.Truncate(j.size)
		j.f.Seek(j.size, 0)
		return fmt.Errorf("coordctl: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("coordctl: journal fsync: %w", err)
	}
	j.size += int64(len(line))
	j.records++
	return nil
}

// Size returns the journal's current byte size (exported at /metrics).
func (j *Journal) Size() int64 { return j.size }

// Records returns how many records the journal holds.
func (j *Journal) Records() int { return j.records }

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Close closes the underlying file. Appends are already fsynced, so Close
// loses nothing.
func (j *Journal) Close() error { return j.f.Close() }
