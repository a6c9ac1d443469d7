package main

import (
	"fmt"

	"symbiosched/internal/alloc"
	"symbiosched/internal/experiments"
	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
)

// The allocator layer: how long one allocation decision takes as the thread
// count grows. Two paths per P:
//
//   - sparse: the top-m sparse build + hierarchical partition every graph
//     policy runs.
//   - repair: the incremental path — 8 signature deltas applied with
//     UpdateWeight, then Repair. The steady-state per-quantum cost once a
//     partition exists.
//
// Each point's checksum hashes the canonical decision.

// allocPs is the P-sweep; k = P/16 cores keeps the per-core load constant.
var allocPs = []int{64, 256, 1024, 4096}

func runAlloc(reps int) []Point {
	var pts []Point
	for _, p := range allocPs {
		k := p / 16
		views := experiments.SynthAllocViews(p, k)
		cell := fmt.Sprintf("P=%d k=%d", p, k)
		pts = append(pts,
			measure("alloc", "sparse "+cell, reps, decision(func() alloc.Mapping { return sparseDecision(views, k) })),
			measure("alloc", "repair "+cell, reps, repairTrial(views, k)))
	}
	return pts
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
	m := make(alloc.Mapping, len(views))
	for core, grp := range alloc.SparseInterferenceGraph(views).PartitionK(k) {
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
