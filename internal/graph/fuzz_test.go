package graph

import (
	"math/rand"
	"testing"
)

// FuzzPartition drives the multilevel partitioner and the incremental
// repair path over random sparse graphs and asserts the structural
// invariants that every allocation decision depends on: each node lands in
// exactly one group, group sizes stay balanced to ±1, and the partition's
// incrementally maintained cut weight always matches a from-scratch CutK
// recomputation.
func FuzzPartition(f *testing.F) {
	f.Add(int64(1), uint16(16), uint8(4), uint8(2), uint8(3))
	f.Add(int64(2), uint16(100), uint8(8), uint8(8), uint8(0))
	f.Add(int64(3), uint16(3), uint8(12), uint8(4), uint8(1))
	f.Add(int64(4), uint16(257), uint8(6), uint8(16), uint8(5))
	f.Add(int64(5), uint16(0), uint8(0), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, deg uint8, k8 uint8, updates uint8) {
		n := int(n16 % 512)
		k := 1 << (int(k8) % 6) // 1..32, always a valid power of two
		rng := rand.New(rand.NewSource(seed))

		b := NewBuilder(n, int(deg%32))
		edges := n * int(deg%24) / 2
		for e := 0; e < edges; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				b.Add(i, j, rng.Float64()*10)
			}
		}
		s := b.Build()

		groups := s.PartitionK(k)
		checkKWay(t, groups, n, k)

		if n == 0 {
			return
		}
		pt := PartitionFromGroups(s, groups)
		if got, want := pt.Cut(), s.CutK(pt.Assign()); !approxEq(got, want) {
			t.Fatalf("fresh partition cut %g != recomputed %g", got, want)
		}

		// Incremental path: mutate random existing edges, repair, re-check.
		touched := make([]int, 0, 8)
		for u := 0; u < int(updates%16); u++ {
			v := rng.Intn(n)
			cols, _ := s.Row(v)
			if len(cols) == 0 {
				continue
			}
			j := int(cols[rng.Intn(len(cols))])
			if !pt.UpdateWeight(s, v, j, rng.Float64()*20) {
				t.Fatalf("existing edge {%d,%d} not updatable", v, j)
			}
			touched = append(touched, v, j)
		}
		before := pt.Cut()
		p := NewPartitioner()
		p.Repair(s, pt, touched)
		checkKWay(t, pt.Groups(), n, k)
		if got, want := pt.Cut(), s.CutK(pt.Assign()); !approxEq(got, want) {
			t.Fatalf("repaired partition cut %g != recomputed %g", got, want)
		}
		if pt.Cut() > before+1e-9 {
			t.Fatalf("repair increased the cut: %g -> %g", before, pt.Cut())
		}

		// Churn mutations: arrivals, departures, and compaction against a
		// shadow edge map, with incremental-vs-fresh-build parity at the end.
		shadow := logicalEdges(s)
		for op := 0; op < int(updates%16); op++ {
			switch c := rng.Intn(8); {
			case c < 4: // arrival with up to 6 live neighbors
				var nbrs []int32
				var w []float64
				seen := map[int32]bool{}
				for tries, want := 0, rng.Intn(7); len(nbrs) < want && tries < 64; tries++ {
					u := int32(rng.Intn(s.Len()))
					if seen[u] || s.Removed(int(u)) {
						continue
					}
					seen[u] = true
					nbrs = append(nbrs, u)
					w = append(w, rng.Float64()*10+0.01)
				}
				v, _ := p.InsertAndRepair(s, pt, nbrs, w)
				for x, u := range nbrs {
					shadow[edgeKey(int32(v), u)] = w[x]
				}
			case c < 7: // departure
				if s.Alive() == 0 {
					continue
				}
				v := rng.Intn(s.Len())
				for s.Removed(v) {
					v = (v + 1) % s.Len()
				}
				p.RemoveAndRepair(s, pt, v)
				for e := range shadow {
					if e[0] == int32(v) || e[1] == int32(v) {
						delete(shadow, e)
					}
				}
			default:
				s.Compact()
			}
			checkSparseInvariants(t, s)
			checkChurnPartition(t, s, pt)
		}
		compareEdges(t, s, freshFrom(s.Len(), shadow))
	})
}
