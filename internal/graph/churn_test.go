package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// logicalEdges extracts the live edge set {i<j} → w of a graph, the shape
// churn parity compares across representations.
func logicalEdges(s *Sparse) map[[2]int32]float64 {
	out := map[[2]int32]float64{}
	for i := 0; i < s.Len(); i++ {
		cols, wts := s.Row(i)
		for t, j := range cols {
			if int32(i) < j {
				out[[2]int32{int32(i), j}] = wts[t]
			}
		}
	}
	return out
}

// freshFrom builds a packed unsparsified graph over the same id space from
// a logical edge set.
func freshFrom(n int, edges map[[2]int32]float64) *Sparse {
	b := NewBuilder(n, 0)
	for e, w := range edges {
		b.Add(int(e[0]), int(e[1]), w)
	}
	return b.Build()
}

func checkSparseInvariants(t *testing.T, s *Sparse) {
	t.Helper()
	slots, alive := 0, 0
	for i := 0; i < s.Len(); i++ {
		cols, wts := s.Row(i)
		if s.Removed(i) {
			if len(cols) != 0 {
				t.Fatalf("removed node %d still has %d edges", i, len(cols))
			}
			continue
		}
		alive++
		slots += len(cols)
		for x, j := range cols {
			if x > 0 && cols[x-1] >= j {
				t.Fatalf("row %d not strictly ascending: %v", i, cols)
			}
			if int(j) == i {
				t.Fatalf("self edge on %d", i)
			}
			if s.Removed(int(j)) {
				t.Fatalf("edge {%d,%d} points at a removed node", i, j)
			}
			if back := s.Weight(int(j), i); back != wts[x] {
				t.Fatalf("edge {%d,%d} asymmetric: %g vs %g", i, j, wts[x], back)
			}
		}
	}
	if alive != s.Alive() {
		t.Fatalf("Alive = %d, counted %d", s.Alive(), alive)
	}
	if slots/2 != s.Edges() {
		t.Fatalf("Edges = %d, counted %d", s.Edges(), slots/2)
	}
}

func TestInsertNodeMatchesFreshBuild(t *testing.T) {
	_, s := randomSparse(40, 6, 7)
	shadow := logicalEdges(s)

	// Insert three nodes: into fresh ids, with small and large degrees.
	for round, deg := range []int{3, 1, 17} {
		rng := rand.New(rand.NewSource(int64(round)))
		var nbrs []int32
		var w []float64
		seen := map[int32]bool{}
		for len(nbrs) < deg {
			u := int32(rng.Intn(s.Len()))
			if seen[u] || s.Removed(int(u)) {
				continue
			}
			seen[u] = true
			nbrs = append(nbrs, u)
			w = append(w, rng.Float64()*9+0.5)
		}
		v := s.InsertNode(nbrs, w)
		for x, u := range nbrs { // nbrs was sorted in place; pairs survive
			shadow[edgeKey(int32(v), u)] = w[x]
		}
		checkSparseInvariants(t, s)
		fresh := freshFrom(s.Len(), shadow)
		compareEdges(t, s, fresh)
	}
}

func edgeKey(a, b int32) [2]int32 {
	if a < b {
		return [2]int32{a, b}
	}
	return [2]int32{b, a}
}

func compareEdges(t *testing.T, got, want *Sparse) {
	t.Helper()
	ge, we := logicalEdges(got), logicalEdges(want)
	if len(ge) != len(we) {
		t.Fatalf("edge count %d, want %d", len(ge), len(we))
	}
	for e, w := range we {
		if gw, ok := ge[e]; !ok || gw != w {
			t.Fatalf("edge %v = %g, want %g", e, ge[e], w)
		}
	}
}

func TestRemoveNodeMatchesFreshBuild(t *testing.T) {
	_, s := randomSparse(30, 8, 9)
	shadow := logicalEdges(s)
	for _, v := range []int{4, 17, 0, 29} {
		s.RemoveNode(v)
		for e := range shadow {
			if e[0] == int32(v) || e[1] == int32(v) {
				delete(shadow, e)
			}
		}
		checkSparseInvariants(t, s)
		compareEdges(t, s, freshFrom(s.Len(), shadow))
	}
	if s.Alive() != 26 {
		t.Fatalf("Alive = %d", s.Alive())
	}
	// Removed ids are reused most-recent-first.
	v := s.InsertNode([]int32{1, 2}, []float64{3, 4})
	if v != 29 {
		t.Fatalf("reused id %d, want 29", v)
	}
	if s.Removed(v) || s.Alive() != 27 {
		t.Fatal("reused slot still dead")
	}
	checkSparseInvariants(t, s)
}

func TestInsertNodeValidation(t *testing.T) {
	_, s := randomSparse(8, 3, 11)
	s.RemoveNode(5)
	for _, bad := range []func(){
		func() { s.InsertNode([]int32{1, 2}, []float64{1}) },    // length mismatch
		func() { s.InsertNode([]int32{3, 3}, []float64{1, 1}) }, // duplicate
		func() { s.InsertNode([]int32{5}, []float64{1}) },       // dead neighbor
		func() { s.InsertNode([]int32{2}, []float64{0}) },       // zero weight
		func() { s.InsertNode([]int32{99}, []float64{1}) },      // out of range
		func() { s.RemoveNode(5) },                              // double remove
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid churn op did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestDriftCountersAndCompact(t *testing.T) {
	_, s := randomSparse(24, 6, 13)
	if d := s.Drift(); d != (Drift{}) {
		t.Fatalf("fresh build drifted: %+v", d)
	}
	// A fresh build is packed, so the first insert into an existing row
	// must relocate it and abandon its old slots.
	v := s.InsertNode([]int32{0, 1, 2}, []float64{1, 2, 3})
	d := s.Drift()
	if d.Inserts != 1 || d.DeadSlots == 0 {
		t.Fatalf("insert drift: %+v", d)
	}
	s.RemoveNode(v)
	if d = s.Drift(); d.Removes != 1 || d.DeadSlots <= 0 {
		t.Fatalf("remove drift: %+v", d)
	}
	if s.Frag() <= 0 {
		t.Fatal("Frag = 0 after relocations")
	}
	// UpdateWeight misses are the topology-drift signal.
	missBefore := s.Drift().Misses
	a, b := 0, 1
	for ; s.Weight(a, b) != 0; b++ { // find a sparsified-away pair
	}
	if s.UpdateWeight(a, b, 1) {
		t.Fatalf("absent edge {%d,%d} reported present", a, b)
	}
	if got := s.Drift().Misses; got != missBefore+1 {
		t.Fatalf("miss not counted: %d -> %d", missBefore, got)
	}
	s.UpdateWeight(3, 3, 1) // self edge: false, but not a sparsification miss
	if got := s.Drift().Misses; got != missBefore+1 {
		t.Fatalf("self edge counted as miss: %d", got)
	}

	shadow := logicalEdges(s)
	s.Compact()
	if got := s.Drift(); got.DeadSlots != 0 || s.Frag() != 0 {
		t.Fatalf("compact left dead slots: %+v", got)
	} else if got.Misses != missBefore+1 {
		t.Fatal("compact cleared the topology-drift counter")
	}
	checkSparseInvariants(t, s)
	compareEdges(t, s, freshFrom(s.Len(), shadow))
	// Edits keep working on compacted storage.
	s.InsertNode([]int32{7, 9}, []float64{1, 1})
	checkSparseInvariants(t, s)
}

// TestCompactInPlace: Compact repacks storage in place after seeded churn
// that relocates and removes rows. Every row reads as before, Frag drops to
// 0, Edges and the other drift counters hold, the storage keeps its
// capacity, and neither a compaction nor an InsertNode that fits the
// capacity allocates.
func TestCompactInPlace(t *testing.T) {
	type row struct {
		cols []int32
		wts  []float64
	}
	for seed := int64(1); seed <= 25; seed++ {
		_, s := randomSparse(40, 5, seed)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 120; op++ {
			switch {
			case op%50 == 49:
				s.Compact() // later compactions start from a compacted layout
			case rng.Intn(3) == 0 && s.Alive() > 10:
				v := rng.Intn(s.Len())
				for s.Removed(v) {
					v = (v + 1) % s.Len()
				}
				s.RemoveNode(v)
			default:
				var nbrs []int32
				var w []float64
				for _, u := range rng.Perm(s.Len())[:1+rng.Intn(6)] {
					if !s.Removed(u) {
						nbrs = append(nbrs, int32(u))
						w = append(w, float64(1+rng.Intn(9)))
					}
				}
				s.InsertNode(nbrs, w)
			}
		}
		if s.Frag() == 0 {
			t.Fatalf("seed %d: churn left no abandoned storage", seed)
		}
		rows := make([]row, s.Len())
		for i := range rows {
			cols, wts := s.Row(i)
			rows[i] = row{slices.Clone(cols), slices.Clone(wts)}
		}
		edges, drift := s.Edges(), s.Drift()
		capCol, capWts := cap(s.col), cap(s.wts)
		s.Compact()
		for i, r := range rows {
			if cols, wts := s.Row(i); !slices.Equal(cols, r.cols) || !slices.Equal(wts, r.wts) {
				t.Fatalf("seed %d: row %d reads %v %v after Compact, was %v %v", seed, i, cols, wts, r.cols, r.wts)
			}
		}
		drift.DeadSlots = 0
		if s.Frag() != 0 || s.Edges() != edges || s.Drift() != drift {
			t.Fatalf("seed %d: after Compact Frag %g, Edges %d (was %d), drift %+v (want %+v)",
				seed, s.Frag(), s.Edges(), edges, s.Drift(), drift)
		}
		if cap(s.col) < capCol || cap(s.wts) < capWts {
			t.Fatalf("seed %d: capacity shrank: col %d -> %d, wts %d -> %d", seed, capCol, cap(s.col), capWts, cap(s.wts))
		}
		checkSparseInvariants(t, s)

		if a := testing.AllocsPerRun(10, s.Compact); a != 0 {
			t.Fatalf("seed %d: Compact allocates %v times", seed, a)
		}
		// An arrival into a reused id whose rows fit the kept capacity.
		nbrs, w := []int32{}, []float64{}
		for u := 0; u < s.Len() && len(nbrs) < 6; u++ {
			if !s.Removed(u) {
				nbrs, w = append(nbrs, int32(u)), append(w, float64(len(nbrs)+1))
			}
		}
		capCol = cap(s.col)
		if a := testing.AllocsPerRun(10, func() { s.RemoveNode(s.InsertNode(nbrs, w)) }); a != 0 {
			t.Fatalf("seed %d: InsertNode allocates %v times", seed, a)
		}
		if cap(s.col) != capCol {
			t.Fatalf("seed %d: InsertNode outgrew the kept capacity %d", seed, capCol)
		}
		checkSparseInvariants(t, s)
	}
}

// checkChurnPartition asserts the partition invariants that hold under
// churn: live nodes covered exactly once, tombstoned nodes unassigned,
// sizes within the ±1 envelope over Alive(), cut bookkeeping exact.
func checkChurnPartition(t *testing.T, s *Sparse, pt *Partition) {
	t.Helper()
	assign := pt.Assign()
	if len(assign) != s.Len() {
		t.Fatalf("assignment covers %d of %d ids", len(assign), s.Len())
	}
	sizes := make([]int, pt.K())
	for v, a := range assign {
		switch {
		case s.Removed(v) && a >= 0:
			t.Fatalf("removed node %d assigned to group %d", v, a)
		case !s.Removed(v) && a < 0:
			t.Fatalf("live node %d unassigned", v)
		case a >= 0:
			sizes[a]++
		}
	}
	na := s.Alive()
	floor, ceil := na/pt.K(), (na+pt.K()-1)/pt.K()
	for g, sz := range sizes {
		if sz < floor || sz > ceil {
			t.Fatalf("group %d size %d outside [%d,%d] (alive %d)", g, sz, floor, ceil, na)
		}
	}
	if pt.Alive() != na {
		t.Fatalf("partition alive %d, graph alive %d", pt.Alive(), na)
	}
	if got, want := pt.Cut(), s.CutK(assign); !approxEq(got, want) {
		t.Fatalf("cut bookkeeping %g != recomputed %g", got, want)
	}
}

func TestInsertAndRepair(t *testing.T) {
	_, s := randomSparse(64, 8, 17)
	pt := s.NewPartition(8)
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 20; round++ {
		deg := 1 + rng.Intn(12)
		nbrs := make([]int32, 0, deg)
		w := make([]float64, 0, deg)
		seen := map[int32]bool{}
		for len(nbrs) < deg {
			u := int32(rng.Intn(s.Len()))
			if seen[u] || s.Removed(int(u)) {
				continue
			}
			seen[u] = true
			nbrs = append(nbrs, u)
			w = append(w, rng.Float64()*9+0.5)
		}
		v, migrations := InsertAndRepair(s, pt, nbrs, w)
		if s.Removed(v) || pt.Group(v) < 0 {
			t.Fatalf("arrival %d not placed", v)
		}
		if migrations < 0 {
			t.Fatalf("negative migrations %d", migrations)
		}
		checkSparseInvariants(t, s)
		checkChurnPartition(t, s, pt)
	}
}

func TestRemoveAndRepairRestoresEnvelope(t *testing.T) {
	_, s := randomSparse(64, 8, 19)
	pt := s.NewPartition(8)
	rng := rand.New(rand.NewSource(23))
	removed := 0
	for round := 0; round < 40; round++ {
		v := rng.Intn(s.Len())
		if s.Removed(v) {
			continue
		}
		RemoveAndRepair(s, pt, v)
		removed++
		checkSparseInvariants(t, s)
		checkChurnPartition(t, s, pt)
	}
	if s.Alive() != 64-removed {
		t.Fatalf("alive %d after %d removals", s.Alive(), removed)
	}
}

// TestChurnInterleaved drives arrivals, departures, weight updates, and
// compaction through one partition, the full monitor-quantum op mix.
func TestChurnInterleaved(t *testing.T) {
	_, s := randomSparse(48, 6, 29)
	pt := s.NewPartition(4)
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 200; round++ {
		switch op := rng.Intn(10); {
		case op < 4: // arrival
			deg := 1 + rng.Intn(6)
			var nbrs []int32
			var w []float64
			seen := map[int32]bool{}
			for len(nbrs) < deg {
				u := int32(rng.Intn(s.Len()))
				if seen[u] || s.Removed(int(u)) {
					continue
				}
				seen[u] = true
				nbrs = append(nbrs, u)
				w = append(w, rng.Float64()*5+0.1)
			}
			InsertAndRepair(s, pt, nbrs, w)
		case op < 8: // departure (keep a quorum so arrivals find neighbors)
			if s.Alive() <= 8 {
				continue
			}
			v := rng.Intn(s.Len())
			for s.Removed(v) {
				v = (v + 1) % s.Len()
			}
			RemoveAndRepair(s, pt, v)
		case op < 9: // weight delta + local repair
			v := rng.Intn(s.Len())
			if s.Removed(v) {
				continue
			}
			cols, _ := s.Row(v)
			if len(cols) == 0 {
				continue
			}
			u := int(cols[rng.Intn(len(cols))])
			if !pt.UpdateWeight(s, v, u, rng.Float64()*20) {
				t.Fatalf("existing edge {%d,%d} not updatable", v, u)
			}
			RepairPartition(s, pt, []int{v, u})
		default:
			s.Compact()
		}
		checkSparseInvariants(t, s)
		checkChurnPartition(t, s, pt)
	}
	// A fresh multilevel partition of the churned graph still satisfies
	// the same contract — PartitionK skips tombstones.
	fresh := PartitionFromGroups(s, s.PartitionK(4))
	checkChurnPartition(t, s, fresh)
}

// BenchmarkChurnEventP1024 is the acceptance benchmark for the incremental
// path: one departure + one arrival (the id is reused) against a P=1024
// graph and its 64-way partition, without any Builder rebuild. Allocs/op is
// the headline: the steady state amortizes to near zero because removal
// slack and tombstoned ids are recycled. Compare BenchmarkRebuildP1024.
func BenchmarkChurnEventP1024(b *testing.B) {
	_, s := randomSparse(1024, 16, 3)
	pt := s.NewPartition(64)
	nbrs := make([]int32, 16)
	wts := make([]float64, 16)
	victim := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RemoveAndRepair(s, pt, victim)
		for x := range nbrs {
			nbrs[x] = int32((victim + 1 + x*61) % 1024)
			wts[x] = float64(1 + (i+x)%7)
		}
		victim, _ = InsertAndRepair(s, pt, nbrs, wts)
	}
}

// BenchmarkRebuildP1024 is what each event above would otherwise cost: a
// full Builder rebuild plus a fresh multilevel partition.
func BenchmarkRebuildP1024(b *testing.B) {
	g, _ := randomSparse(1024, 16, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb := NewBuilder(1024, 16)
		for u := 0; u < 1024; u++ {
			for v := u + 1; v < 1024; v++ {
				if w := g[u][v]; w != 0 {
					nb.Add(u, v, w)
				}
			}
		}
		s := nb.Build()
		s.PartitionK(64)
	}
}
