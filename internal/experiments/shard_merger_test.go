package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// scanMerger is the reference merger: the linear-scan fold the range index
// replaced, kept verbatim. It stores every accepted shard whole, checks
// overlap against each of them in arrival order, and sorts copies of them
// for every report.
type scanMerger struct {
	ref      Shard
	accepted []Shard
	covered  int
}

func (m *scanMerger) Add(s Shard) error {
	if s.Format != ShardFormat {
		return fmt.Errorf("experiments: shard format %d, want %d: %w", s.Format, ShardFormat, ErrShardFormat)
	}
	if len(m.accepted) > 0 {
		ref := m.ref
		switch {
		case s.PoolHash != ref.PoolHash:
			return fmt.Errorf("experiments: pool hash %s vs %s: %w", s.PoolHash, ref.PoolHash, ErrShardCampaign)
		case s.ConfigHash != ref.ConfigHash:
			return fmt.Errorf("experiments: config hash %s vs %s: %w", s.ConfigHash, ref.ConfigHash, ErrShardCampaign)
		case s.Policy != ref.Policy, s.MixSize != ref.MixSize, s.Virtual != ref.Virtual, s.TotalCombos != ref.TotalCombos:
			return fmt.Errorf("experiments: campaign %s/%d/%v/%d vs %s/%d/%v/%d: %w",
				s.Policy, s.MixSize, s.Virtual, s.TotalCombos, ref.Policy, ref.MixSize, ref.Virtual, ref.TotalCombos, ErrShardCampaign)
		}
	}
	if s.ComboHi < s.ComboLo || s.ComboLo < 0 || s.ComboHi > s.TotalCombos {
		return fmt.Errorf("experiments: shard range [%d,%d) out of bounds of %d combos: %w", s.ComboLo, s.ComboHi, s.TotalCombos, ErrShardTiling)
	}
	for _, a := range m.accepted {
		if s.ComboLo < a.ComboHi && a.ComboLo < s.ComboHi {
			return fmt.Errorf("experiments: shard range [%d,%d) overlaps accepted [%d,%d): %w", s.ComboLo, s.ComboHi, a.ComboLo, a.ComboHi, ErrShardTiling)
		}
	}
	if len(s.Outcomes) != s.Combos() {
		return fmt.Errorf("experiments: shard [%d,%d) has %d outcomes, want %d: %w", s.ComboLo, s.ComboHi, len(s.Outcomes), s.Combos(), ErrShardTruncated)
	}
	if len(m.accepted) == 0 {
		m.ref = s
	}
	m.accepted = append(m.accepted, s)
	m.covered += s.Combos()
	return nil
}

func (m *scanMerger) Total() int {
	if len(m.accepted) == 0 {
		return 0
	}
	return m.ref.TotalCombos
}

func (m *scanMerger) Complete() bool {
	return len(m.accepted) > 0 && m.covered == m.ref.TotalCombos
}

func (m *scanMerger) Partial() ImprovementReport {
	if len(m.accepted) == 0 {
		return ImprovementReport{}
	}
	sorted := append([]Shard(nil), m.accepted...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ComboLo < sorted[j].ComboLo })
	outcomes := make([]MixOutcome, 0, m.covered)
	for _, s := range sorted {
		outcomes = append(outcomes, s.Outcomes...)
	}
	return reduceOutcomes(m.ref.Pool, m.ref.Policy, m.ref.Virtual, m.ref.MixSize, m.covered, outcomes)
}

func (m *scanMerger) Report() (ImprovementReport, error) {
	if len(m.accepted) == 0 {
		return ImprovementReport{}, fmt.Errorf("experiments: no shards to merge")
	}
	if !m.Complete() {
		sorted := append([]Shard(nil), m.accepted...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].ComboLo < sorted[j].ComboLo })
		next := 0
		for _, s := range sorted {
			if s.ComboLo != next {
				break
			}
			next = s.ComboHi
		}
		return ImprovementReport{}, fmt.Errorf("experiments: shards cover %d of %d combos (combo %d missing): %w",
			m.covered, m.ref.TotalCombos, next, ErrShardTiling)
	}
	return m.Partial(), nil
}

// shardErrClass names the sentinel an error wraps, "nil" for no error and
// "other" for an error wrapping none of them.
func shardErrClass(err error) string {
	for _, c := range []struct {
		name string
		err  error
	}{{"format", ErrShardFormat}, {"campaign", ErrShardCampaign}, {"tiling", ErrShardTiling}, {"truncated", ErrShardTruncated}} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	if err == nil {
		return "nil"
	}
	return "other"
}

// randomOutcome fabricates combo k's outcome over a 4-name pool: two
// processes with 0–3 candidate runs of random user times.
func randomOutcome(rng *rand.Rand, pool []string, k int) MixOutcome {
	name := func(i int) string { return pool[(i%len(pool)+len(pool))%len(pool)] } // k may be -1
	o := MixOutcome{Names: []string{name(k), name(k + 1)}, Chosen: []int{0, 1}}
	for c := rng.Intn(4); c > 0; c-- {
		o.Candidates = append(o.Candidates, MixResult{Mapping: []int{0, 1},
			UserCycles: []uint64{uint64(rng.Intn(1000)), uint64(rng.Intn(1000))}})
	}
	if len(o.Candidates) > 0 {
		o.ChosenIdx = rng.Intn(len(o.Candidates))
	}
	return o
}

// randomShardSet draws a shard arrival sequence over a campaign of 0–12
// combos: pieces of a random tiling (empty pieces included) in random
// order, mixed with arbitrary and out-of-bounds ranges, duplicates,
// truncated or padded outcome lists, and shards of another campaign.
func randomShardSet(rng *rand.Rand) []Shard {
	pool := []string{"a", "b", "c", "d"}
	total := rng.Intn(13)
	header := Shard{Format: ShardFormat, PoolHash: "p", ConfigHash: "c", Pool: pool,
		Policy: "wig", MixSize: 2, TotalCombos: total}
	var cuts []int
	for c := 0; c <= total; c++ {
		for rng.Intn(3) == 0 { // repeated cuts make empty pieces
			cuts = append(cuts, c)
		}
	}
	cuts = append([]int{0}, append(cuts, total)...)
	sort.Ints(cuts)
	var tiling [][2]int
	for i := 1; i < len(cuts); i++ {
		tiling = append(tiling, [2]int{cuts[i-1], cuts[i]})
	}
	rng.Shuffle(len(tiling), func(i, j int) { tiling[i], tiling[j] = tiling[j], tiling[i] })

	var out []Shard
	for n := 1 + rng.Intn(14); len(out) < n; {
		if len(out) > 0 && rng.Intn(10) == 0 {
			out = append(out, out[rng.Intn(len(out))])
			continue
		}
		s := header
		if len(tiling) > 0 && rng.Intn(2) == 0 {
			s.ComboLo, s.ComboHi = tiling[0][0], tiling[0][1]
			tiling = tiling[1:]
		} else {
			s.ComboLo = rng.Intn(total+3) - 1
			s.ComboHi = s.ComboLo + rng.Intn(total+2) - 1
		}
		for k := s.ComboLo; k < s.ComboHi; k++ {
			s.Outcomes = append(s.Outcomes, randomOutcome(rng, pool, k))
		}
		switch rng.Intn(25) {
		case 0:
			if len(s.Outcomes) > 0 {
				s.Outcomes = s.Outcomes[:len(s.Outcomes)-1]
			}
		case 1:
			s.Outcomes = append(s.Outcomes, MixOutcome{})
		case 2:
			s.PoolHash = "q"
		case 3:
			s.TotalCombos++
		case 4:
			s.Format = ShardFormat + 1
		}
		out = append(out, s)
	}
	return out
}

// TestShardMergerMatchesLinearScan folds seeded random shard sets into the
// range-indexed merger and the linear-scan reference side by side. Every
// Add must get the same decision with the same error class (and the same
// message outside the tiling class, where the two may name different
// accepted ranges), and after every Add the counters, Partial() and
// Report() must agree — reports as byte-identical JSON, errors by class.
func TestShardMergerMatchesLinearScan(t *testing.T) {
	js := func(r ImprovementReport) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	completed := 0
	for seed := int64(1); seed <= 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := NewShardMerger(), &scanMerger{}
		for i, s := range randomShardSet(rng) {
			at := fmt.Sprintf("seed %d shard %d [%d,%d) of %d", seed, i, s.ComboLo, s.ComboHi, s.TotalCombos)
			got, want := m.Add(s), ref.Add(s)
			if shardErrClass(got) != shardErrClass(want) {
				t.Fatalf("%s: Add error %v, reference %v", at, got, want)
			}
			if got != nil && !errors.Is(got, ErrShardTiling) && got.Error() != want.Error() {
				t.Fatalf("%s: Add error %q, reference %q", at, got, want)
			}
			if m.Accepted() != len(ref.accepted) || m.Covered() != ref.covered || m.Total() != ref.Total() || m.Complete() != ref.Complete() {
				t.Fatalf("%s: accepted/covered/total/complete %d/%d/%d/%v, reference %d/%d/%d/%v", at,
					m.Accepted(), m.Covered(), m.Total(), m.Complete(), len(ref.accepted), ref.covered, ref.Total(), ref.Complete())
			}
			if g, w := js(m.Partial()), js(ref.Partial()); g != w {
				t.Fatalf("%s: Partial\n%s\nreference\n%s", at, g, w)
			}
			gr, gerr := m.Report()
			wr, werr := ref.Report()
			if shardErrClass(gerr) != shardErrClass(werr) {
				t.Fatalf("%s: Report error %v, reference %v", at, gerr, werr)
			}
			if g, w := js(gr), js(wr); g != w {
				t.Fatalf("%s: Report\n%s\nreference\n%s", at, g, w)
			}
			if gerr == nil {
				completed++
			}
		}
	}
	// The generator must reach the interesting end state, not just errors.
	if completed < 500 {
		t.Fatalf("only %d complete merges across the seeds", completed)
	}
}
