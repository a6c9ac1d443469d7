package graph

import (
	"fmt"
	"testing"
)

// benchSparse builds the allocator-shaped benchmark graph: P nodes, top-m
// sparsified (m=16), weights drawn deterministically.
func benchSparse(p int) *Sparse {
	b := NewBuilder(p, 16)
	fillBenchEdges(p, func(i, j int, w float64) { b.Add(i, j, w) })
	return b.Build()
}

// fillBenchEdges emits ~24 candidate edges per node from a cheap
// deterministic hash — clustered weights so the partitioners have real
// structure to find, as an interference graph would.
func fillBenchEdges(p int, add func(i, j int, w float64)) {
	const deg = 24
	h := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < p; i++ {
		for d := 1; d <= deg/2; d++ {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			j := (i + 1 + int(h%uint64(deg*4))) % p
			if j == i {
				continue
			}
			w := 0.1 + float64(h%1000)/100
			if i/64 == j/64 {
				w += 8 // same-cluster affinity
			}
			add(i, j, w)
		}
	}
}

// BenchmarkPartitionK is the allocator-scaling headline: multilevel
// partitioning across the allocator P-sweep, k = P/16 cores (64 cores at
// P=1024), into a reused assignment buffer.
func BenchmarkPartitionK(b *testing.B) {
	for _, p := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			s := benchSparse(p)
			k := p / 16
			part := NewPartitioner()
			var assign []int32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				assign = part.PartitionInto(s, k, assign)
			}
		})
	}
}

// BenchmarkRepairPartition measures the incremental path: a small signature
// delta (weight updates around 8 nodes) followed by RepairPartition, the
// per-quantum cost of online re-scheduling.
func BenchmarkRepairPartition(b *testing.B) {
	for _, p := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			s := benchSparse(p)
			pt := s.NewPartition(p / 16)
			part := NewPartitioner()
			touched := make([]int, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for t := range touched {
					v := (i*131 + t*17) % p
					touched[t] = v
					cols, wts := s.Row(v)
					if len(cols) > 0 {
						e := (i + t) % len(cols)
						pt.UpdateWeight(s, v, int(cols[e]), wts[e]*1.5+0.1)
					}
				}
				part.Repair(s, pt, touched)
			}
		})
	}
}

// BenchmarkBuilder measures graph construction at scale: the monitor-side
// cost of streaming all-pairs interference terms through top-m retention.
func BenchmarkBuilder(b *testing.B) {
	for _, p := range []int{256, 1024} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			bld := NewBuilder(p, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bld.Reset(p, 16)
				fillBenchEdges(p, func(x, y int, w float64) { bld.Add(x, y, w) })
				bld.Build()
			}
		})
	}
}
