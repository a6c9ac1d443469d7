package experiments

import (
	"slices"
	"testing"

	"symbiosched/internal/alloc"
	"symbiosched/internal/workload"
)

// TestCampaignGolden runs the full two-phase methodology on one Quick mix —
// phase-1 signature gathering with majority vote, then every candidate
// mapping to completion — and compares the outcome with recorded values. They
// come from a build on which eager and lazy capture gave this campaign
// identical outcomes, so the test pins the whole chain end to end: the
// access loop's timing, lazy capture's materialized values (through the
// mapping the vote chooses), and the allocator.
func TestCampaignGolden(t *testing.T) {
	var mix []workload.Profile
	for _, n := range []string{"mcf", "libquantum", "povray", "gobmk"} {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, p)
	}
	c := Quick()
	c.Workers = 1
	got := c.RunMix(mix, mustPolicy(), c.candidatesFor(mix), nil)

	want := []MixResult{
		{Mapping: alloc.Mapping{0, 0, 1, 1}, UserCycles: []uint64{5414040, 5119609, 4914220, 5254946}},
		{Mapping: alloc.Mapping{0, 1, 0, 1}, UserCycles: []uint64{9840056, 5138614, 4914220, 4966190}},
		{Mapping: alloc.Mapping{0, 1, 1, 0}, UserCycles: []uint64{9840056, 5138437, 4914220, 4966190}},
	}
	if got.ChosenIdx != 0 || !got.Chosen.Equal(want[0].Mapping) {
		t.Fatalf("chose candidate %d %v, want 0 %v", got.ChosenIdx, got.Chosen, want[0].Mapping)
	}
	if len(got.Candidates) != len(want) {
		t.Fatalf("%d candidates, want %d", len(got.Candidates), len(want))
	}
	for i, w := range want {
		g := got.Candidates[i]
		if !g.Mapping.Equal(w.Mapping) || !slices.Equal(g.UserCycles, w.UserCycles) {
			t.Errorf("candidate %d: mapping %v user cycles %v, want %v %v",
				i, g.Mapping, g.UserCycles, w.Mapping, w.UserCycles)
		}
	}
}
