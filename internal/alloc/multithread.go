package alloc

import (
	"sort"

	"symbiosched/internal/kernel"
)

// TwoPhase is §3.3.4: the adaptation of the graph algorithms for
// multi-threaded applications. Threads of one process share data, so their
// mutual "interference" is really sharing and must not drive them apart.
//
// Phase 1 considers each multi-threaded process in isolation and groups its
// threads by occupancy-weight sorting (which threads will live on the same
// core). Phase 2 runs the weighted interference graph at thread granularity
// with intra-process edges pinned: a very large weight for same-group pairs
// (MIN-CUT keeps them together) and zero for different-group pairs (nothing
// holds them together), while inter-process edges keep their §3.3.3 weights.
type TwoPhase struct{}

// Name returns the algorithm's name.
func (TwoPhase) Name() string { return "two-phase-multithreaded" }

// Allocate implements Policy: AllocateScratch on a fresh Scratch, so the
// mapping is the caller's.
func (p TwoPhase) Allocate(views []kernel.View, cores int) Mapping {
	return p.AllocateScratch(views, cores, new(Scratch))
}

// AllocateScratch implements ScratchPolicy: the weighted interference graph
// with the phase-2 edge adjustments applied during the build.
func (TwoPhase) AllocateScratch(views []kernel.View, cores int, s *Scratch) Mapping {
	return s.decide(views, cores, true, twoPhaseOverride(views, cores))
}

// twoPhaseOverride is TwoPhase's edge adjustment for buildSparseGraph.
func twoPhaseOverride(views []kernel.View, cores int) func(i, j int) (float64, bool) {
	// Pin weight: exceed the sum of every directed term so the MIN-CUT can
	// never profit from splitting a pinned pair. Computed per core label in
	// O(n·N) rather than enumerating pairs.
	maxCore := 0
	for i := range views {
		if c := views[i].LastCore; c > maxCore {
			maxCore = c
		}
	}
	onCore := make([]int, maxCore+1)
	for i := range views {
		if c := views[i].LastCore; c >= 0 {
			onCore[c]++
		}
	}
	total := 0.0
	for i := range views {
		vi := &views[i]
		for c, cnt := range onCore {
			if cnt > 0 {
				total += float64(cnt) * directedTerm(vi, c, true)
			}
		}
		// The c == LastCore bucket counted vi pairing with itself.
		if c := vi.LastCore; c >= 0 {
			total -= directedTerm(vi, c, true)
		}
	}
	pin := 10 * (total + 1)

	// Phase 1: per-process occupancy-weight sorting of its threads into
	// `cores` same-core groups, exactly like WeightSort but scoped to one
	// process. group[i] is thread i's group within its process, or -1 for
	// threads of single-threaded processes.
	group := make([]int, len(views))
	for i := range group {
		group[i] = -1
	}
	byProc := map[int][]int{}
	for i, v := range views {
		byProc[v.ProcID] = append(byProc[v.ProcID], i)
	}
	for _, members := range byProc {
		if len(members) < 2 {
			continue
		}
		order := append([]int(nil), members...)
		sort.SliceStable(order, func(a, b int) bool {
			return views[order[a]].Occupancy > views[order[b]].Occupancy
		})
		groupSize := (len(order) + cores - 1) / cores
		for rank, idx := range order {
			group[idx] = rank / groupSize
		}
	}

	// Phase 2 edge adjustment (Fig 8b): same group → pin, different group →
	// no edge; inter-process edges keep their weighted-graph weights.
	return func(i, j int) (float64, bool) {
		if views[i].ProcID != views[j].ProcID || group[i] < 0 {
			return 0, false
		}
		if group[i] == group[j] {
			return pin, true
		}
		return 0, true
	}
}
