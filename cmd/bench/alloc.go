package main

import (
	"fmt"
	"math"

	"symbiosched/internal/alloc"
	"symbiosched/internal/experiments"
	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
)

// The allocator layer: how long one allocation decision takes as the thread
// count grows. Per P:
//
//   - sparse: the top-m sparse build + hierarchical partition every graph
//     policy runs, split into its two halves:
//   - build: the row-scan interference-graph build alone;
//   - partition: the hierarchical partition of the built graph alone.
//   - repair: the incremental path — 8 signature deltas applied with
//     UpdateWeight, then Repair. The steady-state per-quantum cost once a
//     partition exists.
//
// The build point's checksum hashes the graph's rows and weight bits; the
// others hash the canonical decision.

// allocPs is the P-sweep; k = P/16 cores keeps the per-core load constant.
var allocPs = []int{64, 256, 1024, 4096}

func runAlloc(reps int) []Point {
	var pts []Point
	for _, p := range allocPs {
		k := p / 16
		views := experiments.SynthAllocViews(p, k)
		cell := fmt.Sprintf("P=%d k=%d", p, k)
		built := alloc.SparseInterferenceGraph(views)
		pts = append(pts,
			measure("alloc", "sparse "+cell, reps, decision(func() alloc.Mapping { return sparseDecision(views, k) })),
			measure("alloc", "build "+cell, reps, buildTrial(views)),
			measure("alloc", "partition "+cell, reps, decision(func() alloc.Mapping { return partition(built, k) })),
			measure("alloc", "repair "+cell, reps, repairTrial(views, k)))
	}
	return pts
}

// buildTrial times the interference-graph build alone; its checksum hashes
// every row's neighbor ids and weight bits.
func buildTrial(views []kernel.View) trial {
	return func() (func(), func() string) {
		var g *graph.Sparse
		return func() { g = alloc.SparseInterferenceGraph(views) }, func() string {
			d := newDigest()
			for i := 0; i < g.Len(); i++ {
				cols, wts := g.Row(i)
				d.put(uint64(i), uint64(len(cols)))
				for x, j := range cols {
					d.put(uint64(j), math.Float64bits(wts[x]))
				}
			}
			return d.String()
		}
	}
}

// decision is the trial that times one allocation decision.
func decision(decide func() alloc.Mapping) trial {
	return func() (func(), func() string) {
		var m alloc.Mapping
		return func() { m = decide() }, func() string { return mappingChecksum(m) }
	}
}

// sparseDecision builds the top-m sparse interference graph and partitions
// it: the graph policies' decision, and the full rebuild that churn's
// incremental edits avoid.
func sparseDecision(views []kernel.View, k int) alloc.Mapping {
	return partition(alloc.SparseInterferenceGraph(views), k)
}

// partition cuts g into k balanced groups, as a mapping.
func partition(g *graph.Sparse, k int) alloc.Mapping {
	m := make(alloc.Mapping, g.Len())
	for core, grp := range g.PartitionK(k) {
		for _, t := range grp {
			m[t] = core
		}
	}
	return m
}

// repairTrial times the incremental path: on a fresh graph and partition
// (untimed), 8 weight deltas and one Repair. Every sample replays the
// identical delta schedule, so the samples are repeats of one decision.
func repairTrial(views []kernel.View, k int) trial {
	part := graph.NewPartitioner()
	touched := make([]int, 8)
	return func() (func(), func() string) {
		s := alloc.SparseInterferenceGraph(views)
		pt := s.NewPartition(k)
		return func() {
				for t := range touched {
					v := (131 + t*17) % len(views)
					touched[t] = v
					cols, wts := s.Row(v)
					if len(cols) > 0 {
						e := t % len(cols)
						pt.UpdateWeight(s, v, int(cols[e]), wts[e]*1.5+0.1)
					}
				}
				part.Repair(s, pt, touched)
			}, func() string {
				m := make(alloc.Mapping, len(views))
				for i, c := range pt.Assign() {
					m[i] = int(c)
				}
				return mappingChecksum(m)
			}
	}
}

// mappingChecksum digests a mapping in canonical form, so relabelled cores
// hash alike.
func mappingChecksum(m alloc.Mapping) string {
	d := newDigest()
	for _, c := range m.Canonical() {
		d.put(uint64(c))
	}
	return d.String()
}
