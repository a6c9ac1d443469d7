package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
	"symbiosched/internal/metrics"
)

// AllocScale is the allocator-latency study behind ROADMAP directions 2 and
// 4: how long one allocation decision takes as the thread count grows, on
// the two paths the policies expose — a full decision (the top-m sparse
// graph build plus hierarchical partitioning, what every graph policy runs
// each period) and the incremental UpdateWeight + Partitioner.Repair path
// (the per-quantum cost once a partition exists). One row per P with
// k = P/16 cores.
//
// The Quick configuration stops at P=256; the Default configuration sweeps
// to P=4096. Latencies are medians over the repetitions.
func AllocScale(cfg Config) metrics.Table {
	ps := []int{64, 256, 1024, 4096}
	reps := 9
	if cfg.MachineDiv >= 64 { // test scale
		ps, reps = []int{64, 256}, 3
	}

	t := metrics.Table{
		Title:   "Allocator latency: sparse decision vs incremental repair (medians)",
		Headers: []string{"P", "k", "sparse ms", "repair µs", "sparse/repair"},
	}
	for _, p := range ps {
		k := p / 16
		views := SynthAllocViews(p, k)

		sparseMS := medianMS(reps, func() {
			alloc.SparseInterferenceGraph(views).PartitionK(k)
		})

		// Repair: rebuild graph+partition outside the timed region, then
		// time 8 weight deltas + Partitioner.Repair. Every rep replays the
		// identical schedule (same as cmd/bench) so the repaired decision is
		// rep-count-invariant.
		part := graph.NewPartitioner()
		touched := make([]int, 8)
		times := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			s := alloc.SparseInterferenceGraph(views)
			pt := s.NewPartition(k)
			start := time.Now()
			for ti := range touched {
				v := (131 + ti*17) % p
				touched[ti] = v
				cols, wts := s.Row(v)
				if len(cols) > 0 {
					e := ti % len(cols)
					pt.UpdateWeight(s, v, int(cols[e]), wts[e]*1.5+0.1)
				}
			}
			part.Repair(s, pt, touched)
			times = append(times, float64(time.Since(start).Nanoseconds())/1e6)
		}
		sort.Float64s(times)
		repairMS := times[len(times)/2]

		t.AddRow(p, k, fmt.Sprintf("%.3f", sparseMS), fmt.Sprintf("%.1f", repairMS*1e3),
			fmt.Sprintf("%.1fx", sparseMS/repairMS))
	}
	return t
}

func medianMS(reps int, fn func()) float64 {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		times = append(times, float64(time.Since(start).Nanoseconds())/1e6)
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

// SynthAllocViews builds a deterministic large-P monitor snapshot with
// planted interference cliques (threads i ≡ j mod cores interfere), the
// shape the allocator sees from a clustered workload. Shared by AllocScale
// and cmd/bench's alloc layer so both measure the same input.
func SynthAllocViews(p, cores int) []kernel.View {
	rng := rand.New(rand.NewSource(int64(p)*1009 + int64(cores)))
	views := make([]kernel.View, p)
	for i := range views {
		sym := make([]int32, cores)
		ov := make([]int32, cores)
		for c := range sym {
			sym[c] = int32(800 + rng.Intn(200))
			ov[c] = int32(rng.Intn(4))
		}
		views[i] = kernel.View{
			ThreadID: i, ProcID: i, Threads: 1, LastCore: i % cores,
			Occupancy: 40 + rng.Intn(60), Symbiosis: sym, Overlap: ov, HasSig: true,
		}
	}
	for i := range views {
		for j := range views {
			if j != i && j%cores == i%cores {
				c := views[j].LastCore
				views[i].Symbiosis[c] = int32(1 + rng.Intn(4))
				views[i].Overlap[c] = int32(150 + rng.Intn(100))
			}
		}
	}
	return views
}
