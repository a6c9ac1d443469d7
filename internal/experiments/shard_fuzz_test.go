package experiments

import (
	"encoding/json"
	"errors"
	"testing"
)

// fuzzShard is a well-formed shard of a fabricated campaign: combos
// [lo, hi) of the 4-subsets of a 5-benchmark pool, each outcome naming its
// combo's benchmarks and choosing the second of two candidates.
func fuzzShard(lo, hi int) Shard {
	pool := []string{"a", "b", "c", "d", "e"}
	combos := Combinations(len(pool), 4)
	s := Shard{
		Format: ShardFormat, PoolHash: PoolHash(pool), ConfigHash: "c0ffee", Pool: pool,
		Policy: "weighted", MixSize: 4, TotalCombos: len(combos), ComboLo: lo, ComboHi: hi,
	}
	for _, combo := range combos[lo:hi] {
		names := make([]string, len(combo))
		for i, b := range combo {
			names[i] = pool[b]
		}
		s.Outcomes = append(s.Outcomes, MixOutcome{
			Names:     names,
			ChosenIdx: 1,
			Candidates: []MixResult{
				{UserCycles: []uint64{10, 20, 30, 40}},
				{UserCycles: []uint64{8, 25, 30, 35}},
			},
		})
	}
	return s
}

// isShardError reports whether err wraps one of the shard protocol's
// sentinel errors.
func isShardError(err error) bool {
	for _, sentinel := range []error{ErrShardFormat, ErrShardCampaign, ErrShardTiling, ErrShardTruncated, ErrShardOutcome} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// FuzzShardMerge throws arbitrary bytes at the shard boundary: each input is
// decoded as ReadShard decodes a file, then offered to an empty merger and to
// one already holding a valid shard of the fabricated campaign. Property: a
// refusal wraps an ErrShard* sentinel and leaves the merger unchanged, and an
// accepted shard's partial and final reports never panic (a final report
// that is not ready wraps ErrShardTiling). The checked-in seeds under
// testdata/fuzz/FuzzShardMerge cover a mid-file corruption, a truncation
// and an outcome list longer than its range.
func FuzzShardMerge(f *testing.F) {
	valid, err := json.Marshal(fuzzShard(2, 5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeShard(data)
		if err != nil {
			if !isShardError(err) {
				t.Fatalf("decode refused with %v, which wraps no shard sentinel", err)
			}
			return
		}
		holding := NewShardMerger()
		if err := holding.Add(fuzzShard(0, 2)); err != nil {
			t.Fatal(err)
		}
		for _, m := range []*ShardMerger{NewShardMerger(), holding} {
			before, covered := m.Accepted(), m.Covered()
			if err := m.Add(s); err != nil {
				if !isShardError(err) {
					t.Fatalf("Add refused with %v, which wraps no shard sentinel", err)
				}
				if m.Accepted() != before || m.Covered() != covered {
					t.Fatalf("refused shard changed the merger: %d/%d shards/combos, was %d/%d",
						m.Accepted(), m.Covered(), before, covered)
				}
				continue
			}
			m.Partial()
			if _, err := m.Report(); err != nil && !errors.Is(err, ErrShardTiling) {
				t.Fatalf("Report of an accepted shard: %v", err)
			}
		}
	})
}
