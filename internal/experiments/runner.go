package experiments

import (
	"fmt"

	"symbiosched/internal/alloc"
	"symbiosched/internal/workload"
)

// EnumerateMappings returns every balanced assignment of n items onto
// `cores` groups (group sizes ⌈n/cores⌉ / ⌊n/cores⌋), deduplicated up to
// core relabelling. For the paper's 4 processes on 2 cores this yields the
// three mappings of Table 1 (AB|CD, AC|BD, AD|BC).
func EnumerateMappings(n, cores int) []alloc.Mapping {
	if n <= 0 || cores <= 0 {
		panic(fmt.Sprintf("experiments: invalid enumeration %d items on %d cores", n, cores))
	}
	capacity := (n + cores - 1) / cores
	seen := map[string]bool{}
	var out []alloc.Mapping
	cur := make(alloc.Mapping, n)
	counts := make([]int, cores)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			key := cur.Key()
			if !seen[key] {
				seen[key] = true
				out = append(out, cur.Canonical())
			}
			return
		}
		for c := 0; c < cores; c++ {
			if counts[c] == capacity {
				continue
			}
			counts[c]++
			cur[i] = c
			rec(i + 1)
			counts[c]--
			// Symmetry break: item i may only open group c if all groups
			// below c are already open.
			if counts[c] == 0 {
				break
			}
		}
	}
	rec(0)
	return out
}

// MixResult holds the outcome of one mix under one mapping.
type MixResult struct {
	Mapping alloc.Mapping // thread-level, canonical
	// UserCycles[i] is process i's user time to completion.
	UserCycles []uint64
	WallCycles uint64
}

// Phase1 runs the §4.1 signature-gathering phase for the mix on the Core
// 2 Duo (see simArena.phase1) and returns the majority mapping
// (thread-level, canonical). If v is non-nil the workloads run encapsulated
// in VMs.
func (c Config) Phase1(profiles []workload.Profile, policy alloc.Policy, v *VirtSpec) alloc.Mapping {
	a := getArena()
	defer putArena(a)
	return a.phase1(&mixJob{cfg: c, profiles: profiles, policy: policy, virt: v})
}

// mustPolicy returns the paper's best algorithm (the default for studies
// that do not compare policies).
func mustPolicy() alloc.Policy { return alloc.WeightedInterferenceGraph{} }

// profilesByName resolves benchmark names to profiles, panicking on unknown
// names (every study's mixes are compiled in).
func profilesByName(names []string) []workload.Profile {
	mix := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		prof, err := workload.ByName(n)
		if err != nil {
			panic(err)
		}
		mix = append(mix, prof)
	}
	return mix
}

func threadCount(profiles []workload.Profile) int {
	n := 0
	for _, p := range profiles {
		n += p.Threads
	}
	return n
}

// MixOutcome is the full two-phase result for one mix: the chosen mapping,
// plus user times under every candidate mapping.
type MixOutcome struct {
	Names      []string
	Chosen     alloc.Mapping
	ChosenIdx  int // index into Candidates of the chosen mapping
	Candidates []MixResult
}

// ImprovementFor returns the improvement of the chosen schedule over the
// worst candidate for process i: (worst − chosen)/worst. An outcome with no
// candidates (a zero MixOutcome, or a deserialized shard entry that was
// truncated) reports 0, not a panic.
func (o MixOutcome) ImprovementFor(i int) float64 {
	if len(o.Candidates) == 0 {
		return 0
	}
	worst := o.Candidates[0].UserCycles[i]
	for _, c := range o.Candidates[1:] {
		if c.UserCycles[i] > worst {
			worst = c.UserCycles[i]
		}
	}
	chosen := o.Candidates[o.ChosenIdx].UserCycles[i]
	if worst == 0 {
		return 0
	}
	return float64(worst-chosen) / float64(worst)
}

// OracleImprovementFor returns the improvement the best candidate (perfect
// hindsight) achieves over the worst for process i — the ceiling against
// which ImprovementFor can be judged. Like ImprovementFor, it reports 0 on
// an empty candidate set.
func (o MixOutcome) OracleImprovementFor(i int) float64 {
	if len(o.Candidates) == 0 {
		return 0
	}
	worst, best := o.Candidates[0].UserCycles[i], o.Candidates[0].UserCycles[i]
	for _, c := range o.Candidates[1:] {
		if c.UserCycles[i] > worst {
			worst = c.UserCycles[i]
		}
		if c.UserCycles[i] < best {
			best = c.UserCycles[i]
		}
	}
	if worst == 0 {
		return 0
	}
	return float64(worst-best) / float64(worst)
}

// RunMix performs the full two-phase experiment for one mix: phase 1 picks
// a mapping by majority vote; phase 2 runs every candidate thread-level
// mapping to completion. If the chosen mapping is not among the candidates
// it is appended. The run executes on the flat work-stealing scheduler
// (scheduler.go) as a one-job graph — the phase-1 task spawns the candidate
// tasks — so a standalone RunMix gets the same bounded parallelism and
// arena reuse as a full sweep, with no nested pool.
func (c Config) RunMix(profiles []workload.Profile, policy alloc.Policy, candidates []alloc.Mapping, v *VirtSpec) MixOutcome {
	return runMixJobs(c, []mixJob{{
		cfg:        c,
		profiles:   profiles,
		policy:     policy,
		candidates: candidates,
		virt:       v,
	}})[0]
}

// Combinations returns all k-subsets of {0..n-1} in lexicographic order.
func Combinations(n, k int) [][]int {
	if k < 0 || k > n {
		return nil
	}
	var out [][]int
	idx := make([]int, k)
	var rec func(start, d int)
	rec = func(start, d int) {
		if d == k {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := start; i <= n-(k-d); i++ {
			idx[d] = i
			rec(i+1, d+1)
		}
	}
	rec(0, 0)
	return out
}
