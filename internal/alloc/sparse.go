package alloc

import (
	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
)

// sparseTopM is how many heaviest neighbors the interference graph keeps
// per thread. Streaming the all-pairs terms through a top-m builder keeps
// the graph at O(n·m) memory instead of O(n²), which is what lets the
// policies schedule thousands of threads. Up to sparseTopM+1 = 17 threads
// every edge survives, so every configuration the experiments sweep
// (≤ 16 threads) partitions the complete interference graph, and exactly:
// the partitioner enumerates node sets of up to 20 nodes.
const sparseTopM = 16

// directedTerm is the §3.3.2/§3.3.3 directed interference of thread vi
// toward a thread on core: the reciprocal symbiosis, or with weighted the
// occupancy-weighted footprint overlap (§3.3.3 as implemented by
// WeightedInterferenceGraph). Zero when vi has no signature or the core is
// outside its per-core vectors.
func directedTerm(vi *kernel.View, core int, weighted bool) float64 {
	if !vi.HasSig || core < 0 || core >= len(vi.Symbiosis) {
		return 0
	}
	if weighted {
		if core < len(vi.Overlap) {
			return float64(vi.Overlap[core])
		}
		return 0
	}
	return interference(int(vi.Symbiosis[core]))
}

// PairWeight returns the §3.3.3 weighted interference between two threads —
// the edge weight SparseInterferenceGraph would assign the pair. Exported
// for the churn workflow: when a thread arrives mid-run, the driver scores
// it against candidate partners with PairWeight to pick the top-m neighbor
// set for graph.InsertAndRepair, and the monitor's aging refresh recomputes
// the same term as its fresh reading — all without rebuilding the graph.
func PairWeight(vi, vj *kernel.View) float64 {
	return directedTerm(vi, vj.LastCore, true) + directedTerm(vj, vi.LastCore, true)
}

// buildSparseGraph builds the undirected interference graph of §3.3.2/Fig 7
// into g, streaming the pairwise weights through b: the directed edge P→Q
// carries P's interference with Q's core (a process is assumed to
// interfere equally with every process of another core), and the two
// directions are summed, w(i,j) = d(i→core(j)) + d(j→core(i)). Each node
// keeps its sparseTopM heaviest neighbors (plus any edge a neighbor kept —
// the union keeps the graph symmetric). The O(n²) pair enumeration
// remains, but each term is two array reads, and b and g are rebuilt in
// place.
//
// override, when non-nil, replaces the interference weight for a pair:
// returning (w, true) uses w (zero drops the edge), (_, false) keeps the
// streamed weight. TwoPhase uses it to pin same-group threads of a process
// together and cut apart different-group ones.
func buildSparseGraph(b *graph.Builder, g *graph.Sparse, views []kernel.View, weighted bool, override func(i, j int) (float64, bool)) {
	b.Reset(len(views), sparseTopM)
	for i := range views {
		vi := &views[i]
		for j := i + 1; j < len(views); j++ {
			vj := &views[j]
			if override != nil {
				if ow, ok := override(i, j); ok {
					b.Add(i, j, ow)
					continue
				}
			}
			b.Add(i, j, directedTerm(vi, vj.LastCore, weighted)+directedTerm(vj, vi.LastCore, weighted))
		}
	}
	b.BuildInto(g)
}

// SparseInterferenceGraph builds the §3.3.3 weighted interference graph the
// policies partition. Exported so callers can drive the incremental
// workflow directly: partition once, then graph.RepairPartition after small
// signature deltas instead of re-partitioning from scratch (and so the
// benchmark harness can measure each stage in isolation).
func SparseInterferenceGraph(views []kernel.View) *graph.Sparse {
	g := new(graph.Sparse)
	buildSparseGraph(new(graph.Builder), g, views, true, nil)
	return g
}
