package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	b := NewBuilder(4, 0)
	if b.Len() != 4 {
		t.Fatalf("Builder.Len = %d", b.Len())
	}
	b.Add(0, 1, 2.5)
	b.Add(1, 0, 3) // a repeated offer keeps the heaviest copy
	b.Add(2, 3, 7)
	g := b.Build()
	if g.Len() != 4 || g.Alive() != 4 || g.Edges() != 2 {
		t.Fatalf("Len/Alive/Edges = %d/%d/%d", g.Len(), g.Alive(), g.Edges())
	}
	if got := g.Weight(0, 1); got != 3.0 {
		t.Fatalf("Weight(0,1) = %g, want 3", got)
	}
	if got := g.Weight(1, 0); got != 3.0 {
		t.Fatalf("Weight(1,0) = %g, want 3 (symmetric)", got)
	}
	if got := g.Weight(3, 2); got != 7 {
		t.Fatalf("Weight(3,2) = %g, want 7", got)
	}
	if got := g.Degree(0); got != 1 {
		t.Fatalf("Degree(0) = %d", got)
	}
	if got := g.TotalWeight(); got != 10 {
		t.Fatalf("TotalWeight = %g, want 10", got)
	}
}

func TestSelfEdgesIgnored(t *testing.T) {
	b := NewBuilder(3, 0)
	b.Add(1, 1, 5)
	b.Add(0, 2, 0) // zero weights carry no edge either
	g := b.Build()
	if g.TotalWeight() != 0 || g.Edges() != 0 {
		t.Fatal("self or zero edges contributed weight")
	}
	if g.Weight(1, 1) != 0 {
		t.Fatal("self edge has weight")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	_, g := randomGraph(2, 1)
	b := NewBuilder(2, 0)
	for _, f := range []func(){
		func() { b.Add(0, 2, 1) },
		func() { b.Reset(-1, 0) },
		func() { g.Degree(2) },
		func() { g.Removed(-1) },
		func() { g.UpdateWeight(0, 2, 1) },
		func() { g.CutWeight([]int{0}, []int{2}) },
		func() { g.CutK([]int32{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range did not panic")
				}
			}()
			f()
		}()
	}
}

func TestCutAndIntraWeights(t *testing.T) {
	b := NewBuilder(4, 0)
	b.Add(0, 1, 1)
	b.Add(2, 3, 2)
	b.Add(0, 2, 4)
	b.Add(1, 3, 8)
	g := b.Build()
	a, c := []int{0, 1}, []int{2, 3}
	if got := g.CutWeight(a, c); got != 12 {
		t.Fatalf("CutWeight = %g, want 12", got)
	}
	if got := g.IntraWeight(a); got != 1 {
		t.Fatalf("IntraWeight(a) = %g, want 1", got)
	}
	if got := g.IntraWeight(c); got != 2 {
		t.Fatalf("IntraWeight(c) = %g, want 2", got)
	}
	if got := g.CutK([]int32{0, 0, 1, 1}); got != 12 {
		t.Fatalf("CutK = %g, want 12", got)
	}
}

// The paper's Figure 7 scenario: four processes, the pair with the heaviest
// mutual interference must land in the same group so they never co-run.
func TestBisectGroupsHeavyInterferersTogether(t *testing.T) {
	// P0 and P1 interfere heavily; P2 and P3 interfere heavily; cross edges
	// are light. MIN-CUT must cut the light edges.
	b := NewBuilder(4, 0)
	b.Add(0, 1, 10)
	b.Add(2, 3, 9)
	b.Add(0, 2, 1)
	b.Add(1, 3, 1)
	g := b.Build()
	groups := g.PartitionK(2)
	if !sameInts(groups[0], []int{0, 1}) || !sameInts(groups[1], []int{2, 3}) {
		t.Fatalf("PartitionK(2) = %v, want [[0 1] [2 3]]", groups)
	}
	if cut := g.CutWeight(groups[0], groups[1]); cut != 2 {
		t.Fatalf("cut = %g, want 2", cut)
	}
}

func TestBisectTinyGraphs(t *testing.T) {
	for n, want := range [][2]int{{0, 0}, {1, 0}, {1, 1}, {2, 1}} {
		groups := NewBuilder(n, 0).Build().PartitionK(2)
		if len(groups[0]) != want[0] || len(groups[1]) != want[1] {
			t.Fatalf("%d nodes bisected %v, want sizes %v", n, groups, want)
		}
	}
}

func TestBisectBalanced(t *testing.T) {
	for n := 2; n <= 24; n++ {
		_, g := randomGraph(n, 42)
		groups := g.PartitionK(2)
		a, b := groups[0], groups[1]
		if len(a) != (n+1)/2 || len(b) != n/2 {
			t.Fatalf("n=%d: unbalanced %d|%d", n, len(a), len(b))
		}
		checkKWay(t, groups, n, 2)
	}
}

// The exact bisector must never be beaten by any other balanced bipartition.
func TestBisectExactOptimal(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		w, g := randomGraph(8, int64(trial))
		groups := g.PartitionK(2)
		best := matrixCut(w, groups[0], groups[1])
		for mask := 0; mask < 1<<8; mask++ {
			var a, b []int
			for v := 0; v < 8; v++ {
				if mask>>v&1 == 1 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			if len(a) != 4 {
				continue
			}
			if cut := matrixCut(w, a, b); cut < best-1e-9 {
				t.Fatalf("trial %d: found cut %g < reported optimum %g", trial, cut, best)
			}
		}
	}
}

// TestBisectKLLargeGraph: 24 nodes is past exactLimit, so the bisection
// runs the large-graph heuristic (once Kernighan–Lin, now multilevel),
// which must still recover a planted partition: strong edges inside two
// 12-node halves, weak across.
func TestBisectKLLargeGraph(t *testing.T) {
	b := NewBuilder(24, 0)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 24; i++ {
		for j := i + 1; j < 24; j++ {
			w := rng.Float64() * 0.1
			if (i < 12) == (j < 12) {
				w += 5
			}
			b.Add(i, j, w)
		}
	}
	groups := b.Build().PartitionK(2)
	a, c := groups[0], groups[1]
	if len(a) != 12 || len(c) != 12 {
		t.Fatalf("unbalanced: %d|%d", len(a), len(c))
	}
	side := a[0] < 12
	for _, x := range a {
		if (x < 12) != side {
			t.Fatalf("failed to recover planted partition: %v | %v", a, c)
		}
	}
}

func TestPartitionKValidation(t *testing.T) {
	_, g := randomGraph(8, 1)
	p := NewPartitioner()
	for _, k := range []int{0, 3, -2, 6} {
		for _, f := range []func(){func() { g.PartitionK(k) }, func() { p.PartitionInto(g, k, nil) }} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("partitioning into k=%d did not panic", k)
					}
				}()
				f()
			}()
		}
	}
}

func TestPartitionKHierarchical(t *testing.T) {
	// 8 nodes in 4 strongly-bound pairs; 4-way partition must isolate pairs.
	b := NewBuilder(8, 0)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if j == i+1 && i%2 == 0 {
				b.Add(i, j, 100)
			} else {
				b.Add(i, j, rng.Float64())
			}
		}
	}
	groups := b.Build().PartitionK(4)
	if len(groups) != 4 {
		t.Fatalf("got %d groups", len(groups))
	}
	for _, grp := range groups {
		if len(grp) != 2 {
			t.Fatalf("group %v not size 2", grp)
		}
		if grp[1] != grp[0]+1 || grp[0]%2 != 0 {
			t.Fatalf("group %v broke a bound pair", grp)
		}
	}
}

func TestPartitionK1And2(t *testing.T) {
	w, g := randomGraph(6, 3)
	one := g.PartitionK(1)
	if len(one) != 1 || !sameInts(one[0], []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("PartitionK(1) = %v", one)
	}
	two := g.PartitionK(2)
	a, b, _ := bisectOracle(w)
	if !sameInts(two[0], a) || !sameInts(two[1], b) {
		t.Fatalf("PartitionK(2) = %v, oracle %v|%v", two, a, b)
	}
}

// Property: cut(a,b) + intra(a) + intra(b) = total weight.
func TestWeightConservationQuick(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%30) + 2
		_, g := randomGraph(n, seed)
		groups := g.PartitionK(2)
		a, b := groups[0], groups[1]
		lhs := g.CutWeight(a, b) + g.IntraWeight(a) + g.IntraWeight(b)
		return math.Abs(lhs-g.TotalWeight()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: hierarchical groups partition the node set exactly.
func TestPartitionCoverageQuick(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%40) + 4
		_, g := randomGraph(n, seed)
		seen := map[int]int{}
		for _, grp := range g.PartitionK(4) {
			for _, x := range grp {
				seen[x]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// randomGraph returns a complete graph with weights in [0, 10) as a
// matrix and as the unsparsified Sparse of the same edges.
func randomGraph(n int, seed int64) ([][]float64, *Sparse) {
	rng := rand.New(rand.NewSource(seed))
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			x := rng.Float64() * 10
			w[i][j], w[j][i] = x, x
		}
	}
	return w, sparseOf(w)
}

// TestPartitionIntoZeroAllocs pins the monitor's decision loop at zero
// allocations once warm: rebuild the graph in place through a reused
// Builder and Sparse, then partition into a reused assignment buffer, at
// the paper's dual-core shape and a hierarchical four-core one.
func TestPartitionIntoZeroAllocs(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{4, 2}, {16, 4}} {
		w, _ := randomGraph(tc.n, int64(tc.n))
		var (
			b      Builder
			g      Sparse
			p      Partitioner
			assign []int32
		)
		decide := func() {
			b.Reset(tc.n, 16)
			for i := 0; i < tc.n; i++ {
				for j := i + 1; j < tc.n; j++ {
					b.Add(i, j, w[i][j])
				}
			}
			b.BuildInto(&g)
			assign = p.PartitionInto(&g, tc.k, assign)
		}
		decide()
		want := append([]int32(nil), assign...)
		if allocs := testing.AllocsPerRun(50, decide); allocs != 0 {
			t.Errorf("n=%d k=%d: steady-state decision allocates %.1f objects, want 0", tc.n, tc.k, allocs)
		}
		for v := range want {
			if assign[v] != want[v] {
				t.Fatalf("n=%d k=%d: reused scratch changed the decision: %v vs %v", tc.n, tc.k, assign, want)
			}
		}
	}
}

func BenchmarkBisectExact16(b *testing.B) {
	_, g := randomGraph(16, 7)
	p := NewPartitioner()
	var assign []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign = p.PartitionInto(g, 2, assign)
	}
}
