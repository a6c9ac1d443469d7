package graph

import (
	"math/rand"
	"testing"
)

// checkKWay asserts the partitioner's structural contract: every node in
// exactly one group, group sizes balanced to ±1, groups sorted ascending.
func checkKWay(t *testing.T, groups [][]int, n, k int) {
	t.Helper()
	if len(groups) != k {
		t.Fatalf("got %d groups, want %d", len(groups), k)
	}
	seen := make([]int, n)
	minSz, maxSz := n+1, -1
	for _, grp := range groups {
		if len(grp) < minSz {
			minSz = len(grp)
		}
		if len(grp) > maxSz {
			maxSz = len(grp)
		}
		for i, v := range grp {
			if v < 0 || v >= n {
				t.Fatalf("node %d out of range", v)
			}
			if i > 0 && grp[i-1] >= v {
				t.Fatalf("group not sorted: %v", grp)
			}
			seen[v]++
		}
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("node %d in %d groups", v, c)
		}
	}
	if maxSz-minSz > 1 {
		t.Fatalf("unbalanced groups: sizes %d..%d", minSz, maxSz)
	}
}

// plantedSparse builds k dense clusters of size csz with heavy intra-cluster
// edges and light cross edges.
func plantedSparse(k, csz int, seed int64) *Sparse {
	n := k * csz
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i/csz == j/csz {
				b.Add(i, j, 10+rng.Float64())
			} else if rng.Intn(4) == 0 {
				b.Add(i, j, 0.01+rng.Float64()*0.1)
			}
		}
	}
	return b.Build()
}

func TestSparseBisectRecoversPlanted(t *testing.T) {
	s := plantedSparse(2, 50, 11)
	groups := s.PartitionK(2)
	checkKWay(t, groups, 100, 2)
	side := groups[0][0] / 50
	for _, v := range groups[0] {
		if v/50 != side {
			t.Fatalf("bisection split a planted cluster: %v", groups[0])
		}
	}
}

func TestSparsePartitionKRecoversPlanted(t *testing.T) {
	s := plantedSparse(4, 25, 12)
	groups := s.PartitionK(4)
	checkKWay(t, groups, 100, 4)
	for _, grp := range groups {
		c := grp[0] / 25
		for _, v := range grp {
			if v/25 != c {
				t.Fatalf("4-way partition split a planted cluster: %v", grp)
			}
		}
	}
}

func TestSparsePartitionInvariantsAcrossShapes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33, 64, 100, 257} {
		for _, k := range []int{1, 2, 4, 8} {
			_, s := randomSparse(n, 6, int64(n*10+k))
			checkKWay(t, s.PartitionK(k), n, k)
		}
	}
}

func TestSparsePartitionDeterministic(t *testing.T) {
	_, s := randomSparse(200, 10, 21)
	g1 := s.PartitionK(8)
	p := NewPartitioner()
	g2 := p.PartitionK(s, 8) // fresh arena
	g3 := p.PartitionK(s, 8) // reused arena
	for gi := range g1 {
		if len(g1[gi]) != len(g2[gi]) || len(g2[gi]) != len(g3[gi]) {
			t.Fatalf("group %d sizes differ across runs", gi)
		}
		for i := range g1[gi] {
			if g1[gi][i] != g2[gi][i] || g2[gi][i] != g3[gi][i] {
				t.Fatalf("group %d differs across runs: %v %v %v", gi, g1[gi], g2[gi], g3[gi])
			}
		}
	}
}

// The multilevel partitioner must come close to the exact optimum. At 22
// nodes the bisection runs multilevel, past exactLimit, so it is measured
// against the exhaustive oracle.
func TestSparseBisectQualityVsExact(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		w, s := randomSparse(22, 6, int64(300+trial))
		_, _, exact := bisectOracle(w)
		groups := s.PartitionK(2)
		got := s.CutWeight(groups[0], groups[1])
		if got < exact-1e-9 {
			t.Fatalf("trial %d: sparse cut %.4f beat the exact optimum %.4f", trial, got, exact)
		}
		if exact > 1e-9 && got/exact > 1.6 {
			t.Fatalf("trial %d: sparse cut %.4f too far from optimum %.4f", trial, got, exact)
		}
	}
}

// Degenerate inputs: k > n, k = n, an all-zero graph, one overwhelming
// edge, and invalid k, on both the exact (≤ exactLimit) and multilevel
// bisections.
func TestPartitionKDegenerateConsistency(t *testing.T) {
	countNonEmpty := func(gs [][]int) int {
		c := 0
		for _, g := range gs {
			if len(g) > 0 {
				c++
			}
		}
		return c
	}
	for _, n := range []int{5, 40} {
		// k > n: trailing groups are empty, every node a singleton.
		_, s := randomSparse(n, 4, int64(31+n))
		k := 8
		for k <= n {
			k *= 2
		}
		groups := s.PartitionK(k)
		checkKWay(t, groups, n, k)
		if countNonEmpty(groups) != n {
			t.Fatalf("n=%d k=%d: %d non-empty groups", n, k, countNonEmpty(groups))
		}

		// k = n (rounded down to a power of two): singleton or pair groups.
		checkKWay(t, s.PartitionK(k/2), n, k/2)

		// All-zero graph: a balanced partition, deterministic across calls.
		zs := NewBuilder(n+7, 0).Build()
		z1, z2 := zs.PartitionK(4), zs.PartitionK(4)
		checkKWay(t, z1, n+7, 4)
		for gi := range z1 {
			if !sameInts(z1[gi], z2[gi]) {
				t.Fatal("all-zero partition not deterministic")
			}
		}

		// Heavily unbalanced weights: one giant edge must not break balance.
		ub := NewBuilder(n+4, 0)
		ub.Add(0, 1, 1e12)
		for i := 0; i < n+4; i++ {
			for j := i + 1; j < n+4; j++ {
				if !(i == 0 && j == 1) {
					ub.Add(i, j, 1e-6)
				}
			}
		}
		checkKWay(t, ub.Build().PartitionK(4), n+4, 4)

		// Invalid k panics.
		for _, k := range []int{0, -2, 3, 6, 12} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("PartitionK(%d) did not panic", k)
					}
				}()
				s.PartitionK(k)
			}()
		}
	}
}

func TestSparsePartitionEmptyAndTiny(t *testing.T) {
	empty := NewBuilder(0, 0).Build()
	groups := empty.PartitionK(2)
	if len(groups) != 2 || len(groups[0]) != 0 || len(groups[1]) != 0 {
		t.Fatalf("empty graph: %v", groups)
	}
	one := NewBuilder(1, 0).Build()
	groups = one.PartitionK(1)
	if len(groups) != 1 || len(groups[0]) != 1 {
		t.Fatalf("single node k=1: %v", groups)
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	_, s := randomSparse(64, 8, 41)
	pt := s.NewPartition(8)
	if pt.K() != 8 {
		t.Fatalf("K = %d", pt.K())
	}
	groups := pt.Groups()
	checkKWay(t, groups, 64, 8)
	if got, want := pt.Cut(), s.CutK(pt.Assign()); !approxEq(got, want) {
		t.Fatalf("Cut bookkeeping %g != recomputed %g", got, want)
	}
	for gi, grp := range groups {
		for _, v := range grp {
			if pt.Group(v) != gi {
				t.Fatalf("Group(%d) = %d, want %d", v, pt.Group(v), gi)
			}
		}
	}
}

func TestRepairImprovesAfterUpdate(t *testing.T) {
	s := plantedSparse(4, 16, 51)
	pt := s.NewPartition(4)
	before := s.CutK(pt.Assign())

	// Invert the world for two nodes of different groups: each now loves
	// the other's cluster. Swap-based repair must exchange them.
	a := pt.Groups()[0][0]
	b := pt.Groups()[1][0]
	ga, gb := pt.Group(a), pt.Group(b)
	cols, _ := s.Row(a)
	for _, u := range cols {
		w := 0.005
		if pt.Group(int(u)) == gb {
			w = 50
		}
		pt.UpdateWeight(s, a, int(u), w)
	}
	cols, _ = s.Row(b)
	for _, u := range cols {
		if int(u) == a {
			continue
		}
		w := 0.005
		if pt.Group(int(u)) == ga {
			w = 50
		}
		pt.UpdateWeight(s, b, int(u), w)
	}
	if got, want := pt.Cut(), s.CutK(pt.Assign()); !approxEq(got, want) {
		t.Fatalf("cut bookkeeping after updates: %g != %g", got, want)
	}
	stale := pt.Cut()

	moves := RepairPartition(s, pt, []int{a, b})
	if moves == 0 {
		t.Fatal("repair applied no moves")
	}
	if got, want := pt.Cut(), s.CutK(pt.Assign()); !approxEq(got, want) {
		t.Fatalf("cut bookkeeping after repair: %g != %g", got, want)
	}
	if pt.Cut() >= stale {
		t.Fatalf("repair did not reduce the cut: %g -> %g", stale, pt.Cut())
	}
	if pt.Group(a) != gb || pt.Group(b) != ga {
		t.Fatalf("repair did not swap the inverted pair: a in %d, b in %d", pt.Group(a), pt.Group(b))
	}
	// Balance invariant survives repair.
	checkKWay(t, pt.Groups(), 64, 4)
	_ = before
}

func TestRepairPreservesBalanceUnderPressure(t *testing.T) {
	// Make one group maximally attractive to everyone: repair must improve
	// what it can without breaking the ±1 balance.
	_, s := randomSparse(48, 8, 61)
	pt := s.NewPartition(4)
	target := pt.Groups()[2]
	touched := []int{}
	for v := 0; v < 48; v++ {
		cols, _ := s.Row(v)
		for _, u := range cols {
			if pt.Group(int(u)) == 2 || pt.Group(v) == 2 {
				pt.UpdateWeight(s, v, int(u), 100)
			}
		}
		touched = append(touched, v)
	}
	RepairPartition(s, pt, touched)
	checkKWay(t, pt.Groups(), 48, 4)
	if got, want := pt.Cut(), s.CutK(pt.Assign()); !approxEq(got, want) {
		t.Fatalf("cut bookkeeping: %g != %g", got, want)
	}
	_ = target
}

// TestRepairTiesToSmallerGroup: when two groups offer a node the same
// gain, repair moves it to the smaller group id, even when its row meets
// the larger one first. Node 0 is tied to group 2 through node 3 and to
// group 1 through node 5 with equal weights, and the sizes 3/2/2/2 leave
// room to move it into either.
func TestRepairTiesToSmallerGroup(t *testing.T) {
	b := NewBuilder(9, 0)
	b.Add(0, 3, 5)
	b.Add(0, 5, 5)
	for _, e := range [][2]int{{1, 2}, {3, 4}, {5, 6}, {7, 8}} {
		b.Add(e[0], e[1], 10)
	}
	s := b.Build()
	pt := PartitionFromGroups(s, [][]int{{0, 1, 2}, {5, 6}, {3, 4}, {7, 8}})
	if moves := RepairPartition(s, pt, []int{0}); moves != 1 || pt.Group(0) != 1 {
		t.Fatalf("%d moves, node 0 in group %d; want 1 move into group 1", moves, pt.Group(0))
	}
	if got, want := pt.Cut(), s.CutK(pt.Assign()); !approxEq(got, want) {
		t.Fatalf("cut bookkeeping: %g != %g", got, want)
	}
}

func TestPartitionFromGroupsValidation(t *testing.T) {
	_, s := randomSparse(4, 3, 71)
	for _, groups := range [][][]int{
		{{0, 1}, {1, 2, 3}}, // duplicate
		{{0, 1}, {2}},       // missing node 3
		{{0, 1}, {2, 3, 9}}, // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("invalid groups %v did not panic", groups)
				}
			}()
			PartitionFromGroups(s, groups)
		}()
	}
}
