package graph

import (
	"math/rand"
	"testing"
)

// randomSparse builds a random graph with roughly avgDeg neighbors per node,
// returned both as a dense weight matrix and as the unsparsified Sparse of
// the same edges, so tests can check one against the other.
func randomSparse(n, avgDeg int, seed int64) ([][]float64, *Sparse) {
	rng := rand.New(rand.NewSource(seed))
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	b := NewBuilder(n, 0)
	edges := n * avgDeg / 2
	for e := 0; e < edges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || w[i][j] != 0 {
			continue
		}
		x := rng.Float64()*10 + 0.01
		w[i][j], w[j][i] = x, x
		b.Add(i, j, x)
	}
	return w, b.Build()
}

// TestSparseMatchesDense checks the CSR graph against the dense matrix of
// the same edges: every weight, the total, and the cut and intra sums.
func TestSparseMatchesDense(t *testing.T) {
	w, s := randomSparse(60, 8, 1)
	if s.Len() != 60 {
		t.Fatalf("Len = %d", s.Len())
	}
	var total float64
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			if dw, sw := w[i][j], s.Weight(i, j); dw != sw {
				t.Fatalf("weight(%d,%d): dense %g sparse %g", i, j, dw, sw)
			}
			if j > i {
				total += w[i][j]
			}
		}
	}
	if st := s.TotalWeight(); !approxEq(total, st) {
		t.Fatalf("TotalWeight: dense %g sparse %g", total, st)
	}
	a, b := []int{0, 5, 10, 15, 20, 25}, []int{1, 6, 11, 16, 21, 26}
	if dc, sc := matrixCut(w, a, b), s.CutWeight(a, b); !approxEq(dc, sc) {
		t.Fatalf("CutWeight: dense %g sparse %g", dc, sc)
	}
	if di, si := matrixCut(w, a, a)/2, s.IntraWeight(a); !approxEq(di, si) {
		t.Fatalf("IntraWeight: dense %g sparse %g", di, si)
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestSparseRowsSortedSymmetric(t *testing.T) {
	_, s := randomSparse(40, 6, 2)
	for i := 0; i < s.Len(); i++ {
		cols, wts := s.Row(i)
		for t2 := range cols {
			if t2 > 0 && cols[t2-1] >= cols[t2] {
				t.Fatalf("row %d not strictly ascending: %v", i, cols)
			}
			j := int(cols[t2])
			if back := s.Weight(j, i); back != wts[t2] {
				t.Fatalf("edge {%d,%d} asymmetric: %g vs %g", i, j, wts[t2], back)
			}
		}
	}
}

func TestBuilderTopM(t *testing.T) {
	// Node 0 offered 5 edges with distinct weights under topM=2: it retains
	// the two heaviest; lighter edges survive only via the far endpoint,
	// which has room (degree 1 each).
	b := NewBuilder(6, 2)
	weights := []float64{5, 9, 1, 7, 3}
	for j := 1; j <= 5; j++ {
		b.Add(0, j, weights[j-1])
	}
	s := b.Build()
	// Every edge survives (each far endpoint keeps its only candidate).
	for j := 1; j <= 5; j++ {
		if w := s.Weight(0, j); w != weights[j-1] {
			t.Fatalf("edge {0,%d} = %g, want %g", j, w, weights[j-1])
		}
	}

	// With the far endpoints also saturated, only the global heavy edges
	// survive: a clique on {0..3} with one heavy pair, topM=1.
	b = NewBuilder(4, 1)
	b.Add(0, 1, 100)
	b.Add(0, 2, 1)
	b.Add(0, 3, 2)
	b.Add(1, 2, 3)
	b.Add(1, 3, 4)
	b.Add(2, 3, 5)
	s = b.Build()
	if s.Weight(0, 1) != 100 {
		t.Fatal("heaviest edge dropped")
	}
	if s.Weight(0, 2) != 0 {
		t.Fatal("light edge {0,2} survived both endpoints' top-1")
	}
	// {2,3} is both 2's and 3's heaviest: kept.
	if s.Weight(2, 3) != 5 {
		t.Fatal("edge {2,3} dropped")
	}
}

func TestBuilderOrderInvariant(t *testing.T) {
	type e struct {
		i, j int
		w    float64
	}
	rng := rand.New(rand.NewSource(3))
	var edges []e
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			if rng.Intn(3) == 0 {
				edges = append(edges, e{i, j, float64(rng.Intn(5) + 1)}) // ties likely
			}
		}
	}
	build := func(perm []int) *Sparse {
		b := NewBuilder(30, 3)
		for _, k := range perm {
			b.Add(edges[k].i, edges[k].j, edges[k].w)
		}
		return b.Build()
	}
	base := make([]int, len(edges))
	for i := range base {
		base[i] = i
	}
	s1 := build(base)
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(len(edges))
		s2 := build(perm)
		for i := 0; i < 30; i++ {
			for j := i + 1; j < 30; j++ {
				if s1.Weight(i, j) != s2.Weight(i, j) {
					t.Fatalf("trial %d: edge {%d,%d} differs by insertion order: %g vs %g",
						trial, i, j, s1.Weight(i, j), s2.Weight(i, j))
				}
			}
		}
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(4, 0)
	b.Add(0, 1, 5)
	b.Build()
	b.Reset(3, 0)
	b.Add(1, 2, 7)
	s := b.Build()
	if s.Len() != 3 || s.Weight(1, 2) != 7 || s.Weight(0, 1) != 0 {
		t.Fatalf("reset builder leaked state: len %d", s.Len())
	}
}

func TestUpdateWeight(t *testing.T) {
	b := NewBuilder(4, 0)
	b.Add(0, 1, 5)
	b.Add(1, 2, 3)
	s := b.Build()
	if !s.UpdateWeight(0, 1, 9) {
		t.Fatal("existing edge not updated")
	}
	if s.Weight(0, 1) != 9 || s.Weight(1, 0) != 9 {
		t.Fatal("update not symmetric")
	}
	if s.UpdateWeight(0, 3, 1) {
		t.Fatal("absent edge reported updated")
	}
	if s.UpdateWeight(2, 2, 1) {
		t.Fatal("self edge reported updated")
	}
	if got := s.TotalWeight(); !approxEq(got, 12) {
		t.Fatalf("TotalWeight = %g, want 12", got)
	}
}

func TestSparseOutOfRangePanics(t *testing.T) {
	_, s := randomSparse(4, 2, 4)
	b := NewBuilder(4, 0)
	for _, f := range []func(){
		func() { s.Weight(0, 4) },
		func() { s.Row(-1) },
		func() { b.Add(0, 4, 1) },
		func() { NewBuilder(-1, 0) },
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

// TestBuildIntoMatchesBuild: rebuilding in place into a graph that already
// holds other contents, larger, smaller, or edited by churn, must give
// exactly what a fresh Build gives.
func TestBuildIntoMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var dst Sparse
	b := NewBuilder(0, 0)
	for trial := 0; trial < 40; trial++ {
		n, topM := rng.Intn(40), rng.Intn(6)
		b.Reset(n, topM)
		for e := 0; e < n*4; e++ {
			b.Add(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9)))
		}
		want := b.Build()
		b.BuildInto(&dst)
		if dst.Len() != want.Len() || dst.Alive() != want.Alive() || dst.Edges() != want.Edges() || dst.Drift() != (Drift{}) {
			t.Fatalf("trial %d: shape %d/%d/%d drift %+v, want %d/%d/%d",
				trial, dst.Len(), dst.Alive(), dst.Edges(), dst.Drift(), want.Len(), want.Alive(), want.Edges())
		}
		for i := 0; i < n; i++ {
			gc, gw := dst.Row(i)
			wc, ww := want.Row(i)
			if len(gc) != len(wc) {
				t.Fatalf("trial %d: row %d has %d neighbors, want %d", trial, i, len(gc), len(wc))
			}
			for x := range gc {
				if gc[x] != wc[x] || gw[x] != ww[x] {
					t.Fatalf("trial %d: row %d differs: %v %v, want %v %v", trial, i, gc, gw, wc, ww)
				}
			}
		}
		if n > 2 && trial%3 == 0 { // leave churn state behind for the next rebuild
			dst.RemoveNode(0)
			dst.InsertNode([]int32{1}, []float64{2})
		}
	}
}
