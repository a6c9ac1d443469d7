// Package graph provides the weighted undirected interference graphs and the
// balanced MIN-CUT partitioning used by the paper's interference-graph
// allocation algorithms (§3.3.2, §3.3.3).
//
// A graph is a CSR adjacency (Sparse) built from each node's top-m heaviest
// neighbors (BuildKeptInto, fed by a TopM row scan or by Builder's heaps):
// O(P·m) memory at any scale, and the complete graph whenever P ≤ m+1.
// One partitioner (multilevel.go) makes every decision. The paper uses an
// SDP solver for MIN-CUT; at the paper's problem sizes (4 processes, or 16
// threads) exact enumeration is cheap and strictly better, so a node set of
// at most 20 nodes is bisected exactly.
// Larger sets are coarsened by heavy-edge matching, split, and refined on
// the way back up. PartitionK applies hierarchical bisection for more than
// two cores, exactly as §3.3.2 prescribes ("first divide into two groups
// using MIN-CUT and then apply MIN-CUT to each group"). Partitions are then
// repaired incrementally under weight changes and thread churn (repair.go,
// churn.go).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Sparse is a weighted undirected graph in compressed-sparse-row form. Rows
// are neighbor lists sorted by node id; every edge appears in both endpoint
// rows with the same weight. A freshly built graph is packed (see
// BuildKeptInto), but the structure is mutable under churn: edge weights
// change via UpdateWeight, and whole nodes arrive and depart via
// InsertNode/RemoveNode (churn.go) — each row carries independent
// start/end/limit bounds so it can grow into slack in place or relocate to
// tail storage, leaving abandoned slots that Compact reclaims lazily and
// Drift makes observable.
type Sparse struct {
	n     int     // node-id space, including tombstoned slots
	alive int     // nodes not tombstoned by RemoveNode
	off   []int32 // row i storage start
	end   []int32 // row i live end; row i is col/wts[off[i]:end[i]]
	lim   []int32 // row i storage limit; (end, lim) is reusable slack
	col   []int32 // neighbor ids, ascending within a live row
	wts   []float64
	dead  []bool  // tombstoned node slots
	free  []int32 // tombstoned slots available for id reuse (LIFO)
	slots int     // live directed edge slots; Edges() == slots/2
	drift Drift

	sorter rowSorter // InsertNode's neighbor sort, kept so it does not allocate
	order  []int32   // Compact's scratch: live rows in storage order
}

// Len returns the node-id space size, including tombstoned slots — the
// length callers must size id-indexed arrays (CutK assignments) to.
func (s *Sparse) Len() int { return s.n }

// Alive returns the live node count (Len minus tombstoned slots).
func (s *Sparse) Alive() int { return s.alive }

// Removed reports whether node i has been tombstoned by RemoveNode.
func (s *Sparse) Removed(i int) bool {
	s.check(i)
	return s.dead[i]
}

// Edges returns the undirected edge count.
func (s *Sparse) Edges() int { return s.slots / 2 }

// Row returns node i's neighbor ids and weights. The slices alias the
// graph's storage and must not be modified (weights change via UpdateWeight
// so the symmetric copy stays in sync); they are invalidated by the next
// structural edit (InsertNode/RemoveNode/Compact).
func (s *Sparse) Row(i int) ([]int32, []float64) {
	s.check(i)
	lo, hi := s.off[i], s.end[i]
	return s.col[lo:hi], s.wts[lo:hi]
}

func (s *Sparse) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", i, s.n))
	}
}

// find returns the index into col/wts of edge {i,j}, or -1 if the edge is
// not present (binary search within row i).
func (s *Sparse) find(i, j int) int {
	lo, hi := int(s.off[i]), int(s.end[i])
	row := s.col[lo:hi]
	k := sort.Search(len(row), func(x int) bool { return row[x] >= int32(j) })
	if k < len(row) && row[k] == int32(j) {
		return lo + k
	}
	return -1
}

// Weight returns the weight of edge {i,j}, 0 when the edge is absent (or
// was sparsified away) and for self-edges.
func (s *Sparse) Weight(i, j int) float64 {
	s.check(i)
	s.check(j)
	if i == j {
		return 0
	}
	if k := s.find(i, j); k >= 0 {
		return s.wts[k]
	}
	return 0
}

// UpdateWeight overwrites the weight of the existing edge {i,j} in both
// directions and reports whether the edge was present. A false return means
// the pair was sparsified away (or never offered) — the structure has
// drifted from the logical interference graph, the miss is counted in Drift,
// and the caller decides between living with it and a rebuild through
// Builder. Pair the weight change with RepairPartition to mend the current
// cut instead of recomputing it.
func (s *Sparse) UpdateWeight(i, j int, w float64) bool {
	s.check(i)
	s.check(j)
	if i == j {
		return false
	}
	ki := s.find(i, j)
	if ki < 0 {
		s.drift.Misses++
		return false
	}
	kj := s.find(j, i)
	s.wts[ki] = w
	s.wts[kj] = w
	return true
}

// TotalWeight returns the sum of all edge weights.
func (s *Sparse) TotalWeight() float64 {
	var sum float64
	for i := 0; i < s.n; i++ {
		for _, w := range s.wts[s.off[i]:s.end[i]] {
			sum += w
		}
	}
	return sum / 2
}

// CutWeight returns the total weight of edges crossing between group a and
// group b (the MIN-CUT objective), in O(Σdeg(a)) with a membership scan.
func (s *Sparse) CutWeight(a, b []int) float64 {
	inB := make([]bool, s.n)
	for _, j := range b {
		s.check(j)
		inB[j] = true
	}
	var sum float64
	for _, i := range a {
		cols, wts := s.Row(i)
		for k, j := range cols {
			if inB[j] {
				sum += wts[k]
			}
		}
	}
	return sum
}

// IntraWeight returns the total weight of edges inside the group.
func (s *Sparse) IntraWeight(group []int) float64 {
	in := make([]bool, s.n)
	for _, i := range group {
		s.check(i)
		in[i] = true
	}
	var sum float64
	for _, i := range group {
		cols, wts := s.Row(i)
		for k, j := range cols {
			if in[j] {
				sum += wts[k]
			}
		}
	}
	return sum / 2
}

// CutK returns the total weight of edges crossing between different groups
// of a k-way partition given as a node→group assignment. Nodes assigned a
// negative group are ignored.
func (s *Sparse) CutK(assign []int32) float64 {
	if len(assign) != s.n {
		panic(fmt.Sprintf("graph: assignment length %d for %d nodes", len(assign), s.n))
	}
	var sum float64
	for i := 0; i < s.n; i++ {
		if assign[i] < 0 {
			continue
		}
		cols, wts := s.Row(i)
		for k, j := range cols {
			if assign[j] >= 0 && assign[j] != assign[i] {
				sum += wts[k]
			}
		}
	}
	return sum / 2
}

// Builder accumulates a sparse interference graph one offered edge at a
// time, keeping at most topM candidates per node in a bounded heap — O(P·m)
// memory however many pairs are offered, at two heap offers per pair. It is
// the constructor the graph tests use and the pairwise oracle of the
// allocator's row-scan build, which selects each row's top m itself and
// emits the graph through BuildKeptInto.
//
// Sparsification is per-endpoint top-m under edgeLess (weight, then smaller
// neighbor id wins ties); an edge survives into the built graph when either
// endpoint retains it, the standard symmetrization that keeps the graph
// connected enough for partitioning. The retained set depends only on the
// multiset of offered edges, not on Add order, so builds are deterministic.
//
// Add records final weights, it does not accumulate duplicates (a pair
// evicted from a full top-m heap cannot be found again to sum into): when
// the same pair is offered more than once, the heaviest offer wins.
// Eviction always discards the lightest candidate first, so the surviving
// copies at both endpoints agree and Build's per-row dedup keeps the
// maximum deterministically.
type Builder struct {
	n    int
	topM int
	rows [][]Edge // per-node bounded min-heap under edgeLess
}

// NewBuilder returns a builder for n nodes keeping the top topM neighbors
// per node (topM <= 0 keeps every edge).
func NewBuilder(n, topM int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative size %d", n))
	}
	return &Builder{n: n, topM: topM, rows: make([][]Edge, n)}
}

// Reset clears the builder for reuse on n nodes, keeping row capacity.
func (b *Builder) Reset(n, topM int) {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative size %d", n))
	}
	if cap(b.rows) < n {
		b.rows = make([][]Edge, n)
	}
	b.rows = b.rows[:n]
	for i := range b.rows {
		b.rows[i] = b.rows[i][:0]
	}
	b.n, b.topM = n, topM
}

// Len returns the node count.
func (b *Builder) Len() int { return b.n }

// Add offers the undirected edge {i,j} with final weight w. Zero-weight
// edges and self-edges are ignored.
func (b *Builder) Add(i, j int, w float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("graph: node out of range [0,%d)", b.n))
	}
	if i == j || w == 0 {
		return
	}
	b.push(i, Edge{To: int32(j), W: w})
	b.push(j, Edge{To: int32(i), W: w})
}

func (b *Builder) push(i int, e Edge) {
	row := b.rows[i]
	if b.topM > 0 && len(row) >= b.topM {
		if !edgeLess(row[0], e) {
			return // candidate is not better than the current minimum
		}
		// replace the root and sift down
		row[0] = e
		k := 0
		for {
			l, r := 2*k+1, 2*k+2
			min := k
			if l < len(row) && edgeLess(row[l], row[min]) {
				min = l
			}
			if r < len(row) && edgeLess(row[r], row[min]) {
				min = r
			}
			if min == k {
				break
			}
			row[k], row[min] = row[min], row[k]
			k = min
		}
		return
	}
	row = append(row, e)
	for k := len(row) - 1; k > 0; {
		p := (k - 1) / 2
		if !edgeLess(row[k], row[p]) {
			break
		}
		row[k], row[p] = row[p], row[k]
		k = p
	}
	b.rows[i] = row
}

// Build assembles the CSR graph: the union of every node's retained
// candidates, each edge symmetric with its offered weight. The builder
// remains usable (Reset) afterwards.
func (b *Builder) Build() *Sparse {
	s := new(Sparse)
	b.BuildInto(s)
	return s
}

// BuildInto is Build assembling the graph in dst, reusing dst's storage
// where its capacity allows (see BuildKeptInto): each heap is sorted by
// neighbor id, repeated offers of one pair are deduplicated down to the
// heaviest copy, and the rows go to BuildKeptInto.
func (b *Builder) BuildInto(dst *Sparse) {
	for i, row := range b.rows {
		slices.SortFunc(row, func(x, y Edge) int {
			if x.To != y.To {
				return int(x.To - y.To)
			}
			switch {
			case x.W > y.W:
				return -1
			case x.W < y.W:
				return 1
			}
			return 0
		})
		w := 0
		for r := range row {
			if r > 0 && row[r].To == row[w-1].To {
				continue
			}
			row[w] = row[r]
			w++
		}
		b.rows[i] = row[:w]
	}
	BuildKeptInto(dst, b.rows)
}

// BuildKeptInto assembles in dst the graph whose node i kept the edges
// kept[i]: each row sorted by neighbor id, with no repeated neighbor, no
// self-edge and no zero weight. An edge {i,j} survives when either endpoint
// kept it, with the keeper's weight, and appears in both rows. dst's
// storage is reused where its capacity allows, so a caller that rebuilds a
// graph of stable size every period allocates nothing once warm; whatever
// dst held before, churn state included, is discarded.
//
// Every row comes out sorted by id without a sort: node j's row is its own
// kept edges merged with the union terms {i : j ∈ kept[i], i ∉ kept[j]},
// which land in ascending i because the rows are visited in order.
func BuildKeptInto(dst *Sparse, kept [][]Edge) {
	n := len(kept)
	// Row i's degree lands in rowPtr[i+1], then a prefix sum turns degrees
	// into row starts. An edge both endpoints kept is counted once per row.
	rowPtr := growI32(dst.off[:cap(dst.off)], n+1)
	clear(rowPtr)
	for i, row := range kept {
		rowPtr[i+1] += int32(len(row))
		for _, e := range row {
			if !keeps(kept[e.To], int32(i)) {
				rowPtr[e.To+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	slots := int(rowPtr[n])
	col, wts := growI32(dst.col, slots), growF64(dst.wts, slots)
	// Union terms go behind the room each row keeps for its own edges; end
	// is their cursor and finishes at the row's end, which is also its
	// storage limit: a fresh build is fully packed, so the first
	// structural insert into a row relocates it to tail storage with slack
	// (see churn.go).
	end := growI32(dst.end, n)
	for j, row := range kept {
		end[j] = rowPtr[j] + int32(len(row))
	}
	for i, row := range kept {
		for _, e := range row {
			if !keeps(kept[e.To], int32(i)) {
				col[end[e.To]], wts[end[e.To]] = int32(i), e.W
				end[e.To]++
			}
		}
	}
	// Merge each row's own edges in front of its union terms, in place: the
	// write position stays behind the next unread union term.
	for j, row := range kept {
		p, u, hi := rowPtr[j], rowPtr[j]+int32(len(row)), rowPtr[j+1]
		for _, e := range row {
			for u < hi && col[u] < e.To {
				col[p], wts[p] = col[u], wts[u]
				p, u = p+1, u+1
			}
			col[p], wts[p] = e.To, e.W
			p++
		}
	}
	lim := growI32(dst.lim, n)
	copy(lim, end)
	dead := growBool(dst.dead, n)
	clear(dead)
	*dst = Sparse{
		n: n, alive: n, slots: slots,
		off: rowPtr[:n], end: end, lim: lim,
		col: col, wts: wts, dead: dead, free: dst.free[:0], order: dst.order[:0],
	}
}

// keeps reports whether the id-sorted row contains neighbor j.
func keeps(row []Edge, j int32) bool {
	lo, hi := 0, len(row)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if row[h].To < j {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo < len(row) && row[lo].To == j
}

// rowSorter orders a neighbor list and its weights by node id.
type rowSorter struct {
	col []int32
	wts []float64
}

func (r *rowSorter) Len() int           { return len(r.col) }
func (r *rowSorter) Less(a, b int) bool { return r.col[a] < r.col[b] }
func (r *rowSorter) Swap(a, b int) {
	r.col[a], r.col[b] = r.col[b], r.col[a]
	r.wts[a], r.wts[b] = r.wts[b], r.wts[a]
}
