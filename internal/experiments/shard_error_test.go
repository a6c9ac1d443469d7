package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// errShard builds a minimal header-consistent shard over a 10-combo
// campaign for the validation tests (no simulation involved).
func errShard(lo, hi int) Shard {
	return Shard{Format: ShardFormat, PoolHash: "p", ConfigHash: "c",
		Pool: []string{"a", "b"}, Policy: "wig", MixSize: 2,
		TotalCombos: 10, ComboLo: lo, ComboHi: hi,
		Outcomes: make([]MixOutcome, hi-lo)}
}

// TestReadShardCorruptFile pins ReadShard's promise for a file that is not
// a shard: a diagnostic wrapping ErrShardFormat, naming the path.
func TestReadShardCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(path, []byte("{\"format\": 1, \"outcomes\": [truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadShard(path)
	if !errors.Is(err, ErrShardFormat) {
		t.Fatalf("corrupt shard error %v, want ErrShardFormat", err)
	}
	if got := err.Error(); !strings.Contains(got, path) {
		t.Fatalf("error %q does not name the file", got)
	}

	missing := filepath.Join(dir, "nope.json")
	if _, err := ReadShard(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file error %v, want os.ErrNotExist", err)
	}
}

// TestReadShardVersionMismatch pins the format-version gate: a structurally
// valid shard from a different protocol version is refused with
// ErrShardFormat, not merged on faith.
func TestReadShardVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	s := errShard(0, 10)
	s.Format = ShardFormat + 1
	path := filepath.Join(dir, "future.json")
	if err := WriteShard(path, s); err != nil {
		t.Fatal(err)
	}
	_, err := ReadShard(path)
	if !errors.Is(err, ErrShardFormat) {
		t.Fatalf("future-format shard error %v, want ErrShardFormat", err)
	}
}

// TestMergeShardsErrorClasses pins the sentinel each MergeShards rejection
// wraps, so the coordinator can classify failures with errors.Is.
func TestMergeShardsErrorClasses(t *testing.T) {
	cases := []struct {
		name   string
		shards []Shard
		want   error
	}{
		{"gap", []Shard{errShard(0, 4), errShard(5, 10)}, ErrShardTiling},
		{"overlap", []Shard{errShard(0, 6), errShard(4, 10)}, ErrShardTiling},
		{"duplicate", []Shard{errShard(0, 4), errShard(0, 4), errShard(4, 10)}, ErrShardTiling},
		{"partial", []Shard{errShard(0, 4)}, ErrShardTiling},
		{"out-of-bounds", []Shard{errShard(0, 4), func() Shard {
			s := errShard(4, 10)
			s.ComboHi = 12
			s.Outcomes = make([]MixOutcome, 8)
			return s
		}()}, ErrShardTiling},
		{"truncated", []Shard{func() Shard {
			s := errShard(0, 4)
			s.Outcomes = s.Outcomes[:2]
			return s
		}(), errShard(4, 10)}, ErrShardTruncated},
		{"pool-hash", []Shard{errShard(0, 4), func() Shard {
			s := errShard(4, 10)
			s.PoolHash = "other-pool"
			return s
		}()}, ErrShardCampaign},
		{"config-hash", []Shard{errShard(0, 4), func() Shard {
			s := errShard(4, 10)
			s.ConfigHash = "other-config"
			return s
		}()}, ErrShardCampaign},
		{"policy", []Shard{errShard(0, 4), func() Shard {
			s := errShard(4, 10)
			s.Policy = "weight-sort"
			return s
		}()}, ErrShardCampaign},
		{"format", []Shard{func() Shard {
			s := errShard(0, 10)
			s.Format = 99
			return s
		}()}, ErrShardFormat},
	}
	for _, tc := range cases {
		if _, err := MergeShards(tc.shards); !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}
	// And the happy path still merges, in any order.
	if _, err := MergeShards([]Shard{errShard(4, 10), errShard(0, 4)}); err != nil {
		t.Errorf("valid tiling rejected: %v", err)
	}
}

// TestMalformedOutcomesRejected: a shard carrying an outcome the report
// reduction cannot fold is refused with ErrShardOutcome — by Add, whether
// it arrives first or after an accepted shard, leaving the merger
// unchanged, and by MergeShards. Well-formed and zero-valued outcomes
// still merge.
func TestMalformedOutcomesRejected(t *testing.T) {
	good := func(s Shard) Shard {
		for k := range s.Outcomes {
			s.Outcomes[k] = MixOutcome{Names: []string{"a", "b"}, ChosenIdx: 1, Candidates: []MixResult{
				{UserCycles: []uint64{10, 20}}, {UserCycles: []uint64{15, 5}}}}
		}
		return s
	}
	for _, tc := range []struct {
		name   string
		mutate func(s *Shard, o *MixOutcome)
	}{
		{"name outside the pool", func(_ *Shard, o *MixOutcome) { o.Names[1] = "not-in-pool" }},
		{"name outside the pool, no candidates", func(_ *Shard, o *MixOutcome) { *o = MixOutcome{Names: []string{"z"}} }},
		{"name in the shard's pool only", func(s *Shard, o *MixOutcome) {
			s.Pool = []string{"a", "b", "z"}
			o.Names[0] = "z"
		}},
		{"chosen index past the candidates", func(_ *Shard, o *MixOutcome) { o.ChosenIdx = 2 }},
		{"negative chosen index", func(_ *Shard, o *MixOutcome) { o.ChosenIdx = -1 }},
		{"short user cycles", func(_ *Shard, o *MixOutcome) { o.Candidates[1].UserCycles = o.Candidates[1].UserCycles[:1] }},
		{"no user cycles", func(_ *Shard, o *MixOutcome) { o.Candidates[0].UserCycles = nil }},
	} {
		first, bad := good(errShard(0, 4)), good(errShard(4, 10))
		tc.mutate(&bad, &bad.Outcomes[3])

		m := NewShardMerger()
		if err := m.Add(first); err != nil {
			t.Fatalf("%s: good shard: %v", tc.name, err)
		}
		if err := m.Add(bad); !errors.Is(err, ErrShardOutcome) {
			t.Errorf("%s: Add after a good shard: %v, want ErrShardOutcome", tc.name, err)
		}
		if m.Accepted() != 1 || m.Covered() != 4 {
			t.Errorf("%s: rejected Add changed the merger: %d shards, %d combos", tc.name, m.Accepted(), m.Covered())
		}
		m.Partial()
		if _, err := MergeShards([]Shard{first, bad}); !errors.Is(err, ErrShardOutcome) {
			t.Errorf("%s: MergeShards: %v, want ErrShardOutcome", tc.name, err)
		}
		if tc.name == "name in the shard's pool only" {
			continue // first in, its own pool is the merger's
		}
		if err := NewShardMerger().Add(bad); !errors.Is(err, ErrShardOutcome) {
			t.Errorf("%s: Add as the first shard: %v, want ErrShardOutcome", tc.name, err)
		}
	}
	if _, err := MergeShards([]Shard{good(errShard(0, 4)), errShard(4, 10)}); err != nil {
		t.Errorf("well-formed and zero-valued outcomes rejected: %v", err)
	}
}

// TestShardMergerStreaming pins the incremental fold the coordinator uses:
// shards arriving out of order, partial visibility along the way, and a
// final report identical to the batch MergeShards of the same shards.
func TestShardMergerStreaming(t *testing.T) {
	a, b, c := errShard(0, 3), errShard(3, 7), errShard(7, 10)
	m := NewShardMerger()
	if m.Complete() || m.Covered() != 0 || m.Total() != 0 {
		t.Fatal("fresh merger not empty")
	}

	// Out-of-order arrival with a gap in the middle.
	if err := m.Add(c); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(a); err != nil {
		t.Fatal(err)
	}
	if m.Complete() {
		t.Fatal("gapped merger claims completeness")
	}
	if m.Covered() != 6 || m.Total() != 10 || m.Accepted() != 2 {
		t.Fatalf("covered %d/%d over %d shards", m.Covered(), m.Total(), m.Accepted())
	}
	if _, err := m.Report(); !errors.Is(err, ErrShardTiling) {
		t.Fatalf("gapped Report error %v, want ErrShardTiling", err)
	}
	if p := m.Partial(); p.Mixes != 6 {
		t.Fatalf("partial over %d mixes, want 6", p.Mixes)
	}

	// A duplicate of an accepted shard is refused and changes nothing.
	if err := m.Add(a); !errors.Is(err, ErrShardTiling) {
		t.Fatalf("duplicate Add error %v, want ErrShardTiling", err)
	}
	if m.Covered() != 6 || m.Accepted() != 2 {
		t.Fatal("rejected Add mutated the merger")
	}

	if err := m.Add(b); err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Fatal("tiled merger not complete")
	}
	streamed, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := MergeShards([]Shard{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, batch) {
		t.Fatalf("streaming and batch merges disagree:\nstream: %+v\nbatch:  %+v", streamed, batch)
	}
}
