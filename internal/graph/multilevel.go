// The partitioner: hierarchical bisection (§3.3.2) where each bisection is
// solved exactly when its node set is small enough and by METIS-style
// multilevel partitioning otherwise — heavy-edge-matching coarsening, a
// deterministic balanced seed split on the coarse graph, and greedy boundary
// refinement on the way back up. The recursion works on index ranges
// reordered in place instead of induced-subgraph copies, and keeps every
// intermediate array in a reusable Partitioner scratch arena (the
// experiments/arena.go discipline: bit-identical to a fresh run,
// allocation-free in steady state).
package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

const (
	// exactLimit is the largest node set a bisection enumerates exactly
	// (C(19,9) ≈ 92k balanced splits at 20 nodes). It covers every
	// configuration the paper measures, so those decisions are optimal.
	exactLimit = 20
	// mlCoarseLimit is the node count at which coarsening stops and the
	// seed bisection runs directly.
	mlCoarseLimit = 32
	// mlMaxLevels bounds the coarsening hierarchy (defensive; 2× shrink
	// per level exhausts any int-sized graph long before this).
	mlMaxLevels = 48
	// mlRefinePasses bounds the greedy improvement sweeps per level.
	mlRefinePasses = 8
)

// mlLevel is one rung of the coarsening hierarchy, storage reused across
// calls.
type mlLevel struct {
	n      int
	rowPtr []int32
	col    []int32
	w      []float64
	vw     []int32 // fine-node count represented by each node
	cmap   []int32 // this level's node → next-coarser node
	side   []uint8 // bisection side, 0 = A, 1 = B
	match  []int32
}

func (lv *mlLevel) reset(n int) {
	lv.n = n
	lv.rowPtr = growI32(lv.rowPtr, n+1)
	lv.vw = growI32(lv.vw, n)
	lv.cmap = growI32(lv.cmap, n)
	lv.side = growU8(lv.side, n)
	lv.match = growI32(lv.match, n)
	lv.col = lv.col[:0]
	lv.w = lv.w[:0]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Partitioner is the reusable scratch arena for partitioning and
// incremental repair. A Partitioner is not safe for concurrent use; the
// package-level Sparse.PartitionK / RepairPartition helpers draw from a
// sync.Pool so concurrent callers each get their own.
type Partitioner struct {
	localIdx []int32 // global node → local index, -1 when unset
	tmp      []int32 // stable-partition spill buffer
	nodes    []int32 // working permutation of the node set
	levels   []*mlLevel
	edges    []cutEdge // the exact solver's edge list

	acc      []float64 // coarse-edge aggregation, indexed by coarse id
	accSeen  []bool
	accTouch []int32

	// repair scratch (see repair.go)
	conn      []float64
	connSeen  []bool
	connTouch []int32
	active    []int32
	nextAct   []int32
	activeIn  []bool
}

// NewPartitioner returns an empty scratch arena.
func NewPartitioner() *Partitioner { return &Partitioner{} }

var partitionerPool = sync.Pool{New: func() any { return NewPartitioner() }}

// validateK guards every partitioner entry point: k must be a positive
// power of two.
func validateK(k int) {
	if k <= 0 || k&(k-1) != 0 {
		panic(fmt.Sprintf("graph: k=%d must be a positive power of two", k))
	}
}

// PartitionK partitions the graph into k balanced groups by hierarchical
// bisection: k must be a positive power of two, groups come back sorted,
// sizes are balanced to ±1, and k > Len() leaves some groups empty.
// Scratch comes from an internal pool; the result is freshly allocated.
// Partitioner.PartitionInto is the allocation-free form.
func (s *Sparse) PartitionK(k int) [][]int {
	p := partitionerPool.Get().(*Partitioner)
	defer partitionerPool.Put(p)
	return p.PartitionK(s, k)
}

// PartitionK is Sparse.PartitionK running on this arena's scratch, with
// the groups read off PartitionInto's assignment.
func (p *Partitioner) PartitionK(g *Sparse, k int) [][]int {
	return groupsOf(p.PartitionInto(g, k, nil), k)
}

// PartitionInto partitions g into k balanced groups and writes the result
// as a node→group assignment into assign, grown to g.Len() only when its
// capacity is short, and returns it. Groups are numbered depth first, the
// A half of every bisection before its B half. Under churn only the live
// nodes are partitioned: tombstoned slots are assigned -1, and balance is
// ±1 over Alive(), matching what Repair maintains incrementally. With a
// reused assign buffer and arena the call allocates nothing once warm.
func (p *Partitioner) PartitionInto(g *Sparse, k int, assign []int32) []int32 {
	validateK(k)
	n := g.n
	assign = growI32(assign, n)
	p.localIdx = growI32(p.localIdx, n)
	p.nodes = growI32(p.nodes, n)[:0]
	for i := 0; i < n; i++ {
		p.localIdx[i] = -1
		assign[i] = -1
		if !g.dead[i] {
			p.nodes = append(p.nodes, int32(i))
		}
	}
	p.recurse(g, p.nodes, k, 0, assign)
	return assign
}

// recurse hierarchically bisects the (ascending) node set in place into k
// leaf groups numbered from group upward, A halves first.
func (p *Partitioner) recurse(g *Sparse, nodes []int32, k int, group int32, assign []int32) {
	if k == 1 {
		for _, v := range nodes {
			assign[v] = group
		}
		return
	}
	split := p.bisectNodes(g, nodes)
	p.recurse(g, nodes[:split], k/2, group, assign)
	p.recurse(g, nodes[split:], k/2, group+int32(k/2), assign)
}

// groupsOf materializes a node→group assignment as k ascending groups
// carved from one backing array; nodes assigned -1 appear in none.
func groupsOf(assign []int32, k int) [][]int {
	start := make([]int, k+1)
	for _, a := range assign {
		if a >= 0 {
			start[a+1]++
		}
	}
	for gi := 0; gi < k; gi++ {
		start[gi+1] += start[gi]
	}
	backing := make([]int, start[k])
	groups := make([][]int, k)
	for gi := range groups {
		groups[gi] = backing[start[gi]:start[gi]:start[gi+1]]
	}
	for v, a := range assign {
		if a >= 0 {
			groups[a] = append(groups[a], v)
		}
	}
	return groups
}

// bisectNodes splits the node set into a ⌈n/2⌉ prefix and ⌊n/2⌋ suffix
// minimizing the induced cut, reordering nodes in place (each half stays
// ascending) and returning the split point. A set of at most exactLimit
// nodes is solved exactly; a larger one runs the multilevel heuristic.
func (p *Partitioner) bisectNodes(g *Sparse, nodes []int32) int {
	n := len(nodes)
	if n <= 1 {
		return n
	}
	// Level 0: the induced subgraph in local indices. nodes is ascending,
	// so local rows inherit the sorted order of the global CSR rows.
	lv0 := p.level(0)
	lv0.reset(n)
	for i, v := range nodes {
		p.localIdx[v] = int32(i)
	}
	for i, v := range nodes {
		lv0.rowPtr[i] = int32(len(lv0.col))
		cols, wts := g.Row(int(v))
		for t, gj := range cols {
			if lj := p.localIdx[gj]; lj >= 0 {
				lv0.col = append(lv0.col, lj)
				lv0.w = append(lv0.w, wts[t])
			}
		}
		lv0.vw[i] = 1
	}
	lv0.rowPtr[n] = int32(len(lv0.col))
	for _, v := range nodes {
		p.localIdx[v] = -1
	}

	if n <= exactLimit {
		p.bisectExact(lv0)
	} else {
		p.bisectMultilevel(n)
	}

	// Stable-partition nodes by side: A first, both halves stay ascending.
	side := lv0.side
	p.tmp = p.tmp[:0]
	w := 0
	for i, v := range nodes {
		if side[i] == 0 {
			nodes[w] = v
			w++
		} else {
			p.tmp = append(p.tmp, v)
		}
	}
	copy(nodes[w:], p.tmp)
	return w
}

// cutEdge is one edge {i, j}, i < j, of an exactly bisected node set.
type cutEdge struct {
	i, j uint32
	w    float64
}

// bisectExact enumerates every balanced split of lv (at most exactLimit
// nodes) with local node 0 on side A and |A| = ⌈n/2⌉, in ascending order of
// the A-side bitmask, and keeps the first strictly smallest cut. Each cut
// is summed over edges {i, j}, i < j, in row order, so the comparison, and
// with it the tie between equal cuts, is reproducible bit for bit.
func (p *Partitioner) bisectExact(lv *mlLevel) {
	n := lv.n
	p.edges = p.edges[:0]
	nonneg := true
	for i := 0; i < n; i++ {
		for t := lv.rowPtr[i]; t < lv.rowPtr[i+1]; t++ {
			if j := lv.col[t]; int(j) > i {
				p.edges = append(p.edges, cutEdge{uint32(i), uint32(j), lv.w[t]})
				nonneg = nonneg && lv.w[t] >= 0
			}
		}
	}
	// Gosper's hack walks the masks over nodes 1..n-1 with ⌈n/2⌉-1 bits in
	// ascending order; node 0 (bit 0) is always on side A.
	r := (n+1)/2 - 1
	best, bestCut := uint32(1), math.Inf(1)
	for m := uint32(1)<<r - 1; m < 1<<(n-1); {
		mask := m<<1 | 1
		var cut float64
		for _, e := range p.edges {
			if (mask>>e.i^mask>>e.j)&1 != 0 {
				// With no negative weight the partial sum only grows, so a
				// split that already reaches bestCut cannot win: stop early.
				if cut += e.w; nonneg && cut >= bestCut {
					break
				}
			}
		}
		if cut < bestCut {
			best, bestCut = mask, cut
		}
		if m == 0 {
			break // r == 0: the single split {0} | rest
		}
		c := m & -m
		next := m + c
		m = (next^m)>>2/c | next
	}
	for v := 0; v < n; v++ {
		lv.side[v] = uint8(^best >> v & 1)
	}
}

// bisectMultilevel bisects the level-0 graph of n nodes into sides of
// ⌈n/2⌉ and ⌊n/2⌋: coarsen, seed-split the coarsest level, then refine
// and rebalance each level on the way back up.
func (p *Partitioner) bisectMultilevel(n int) {
	// Coarsen until the graph is small or matching stops shrinking it.
	d := 0
	for p.level(d).n > mlCoarseLimit && d < mlMaxLevels {
		next := p.level(d + 1)
		if !p.coarsen(p.level(d), next) {
			break
		}
		d++
	}

	targetA := int32((n + 1) / 2)
	p.seedBisect(p.level(d), targetA)
	for {
		lv := p.level(d)
		tol := maxVW(lv)
		p.refine(lv, targetA, tol)
		if d == 0 {
			break
		}
		p.enforceBalance(lv, targetA, tol)
		// Project the side assignment down one level.
		fine := p.level(d - 1)
		for v := 0; v < fine.n; v++ {
			fine.side[v] = lv.side[fine.cmap[v]]
		}
		d--
	}
	p.enforceBalance(p.level(0), targetA, 0)
}

func (p *Partitioner) level(d int) *mlLevel {
	for len(p.levels) <= d {
		p.levels = append(p.levels, &mlLevel{})
	}
	return p.levels[d]
}

// coarsen contracts from into to by heavy-edge matching: each node pairs
// with its heaviest unmatched neighbor (ties to the smallest id, nodes
// visited in ascending order). Reports false when matching found no pair to
// contract (an edgeless graph), in which case to is untouched.
func (p *Partitioner) coarsen(from, to *mlLevel) bool {
	n := from.n
	for v := 0; v < n; v++ {
		from.match[v] = -1
	}
	pairs := 0
	for v := 0; v < n; v++ {
		if from.match[v] >= 0 {
			continue
		}
		best, bw := int32(-1), 0.0
		lo, hi := from.rowPtr[v], from.rowPtr[v+1]
		for t := lo; t < hi; t++ {
			u := from.col[t]
			if from.match[u] < 0 && int(u) != v && from.w[t] > bw {
				best, bw = u, from.w[t]
			}
		}
		if best >= 0 {
			from.match[v] = best
			from.match[best] = int32(v)
			pairs++
		} else {
			from.match[v] = int32(v)
		}
	}
	if pairs == 0 {
		return false
	}
	// Coarse ids in order of representative (smaller endpoint) discovery.
	cid := int32(0)
	for v := 0; v < n; v++ {
		if int(from.match[v]) >= v {
			from.cmap[v] = cid
			from.cmap[from.match[v]] = cid
			cid++
		}
	}
	cn := int(cid)
	to.reset(cn)
	p.acc = growF64(p.acc, cn)
	p.accSeen = growBool(p.accSeen, cn)
	for i := 0; i < cn; i++ {
		p.acc[i] = 0
		p.accSeen[i] = false
	}
	c := int32(0)
	for v := 0; v < n; v++ {
		if int(from.match[v]) < v {
			continue // handled with its representative
		}
		to.rowPtr[c] = int32(len(to.col))
		to.vw[c] = from.vw[v]
		p.accTouch = p.accTouch[:0]
		p.gatherCoarse(from, v, c)
		if u := from.match[v]; int(u) != v {
			to.vw[c] += from.vw[u]
			p.gatherCoarse(from, int(u), c)
		}
		slices.Sort(p.accTouch)
		for _, cu := range p.accTouch {
			to.col = append(to.col, cu)
			to.w = append(to.w, p.acc[cu])
			p.acc[cu] = 0
			p.accSeen[cu] = false
		}
		c++
	}
	to.rowPtr[cn] = int32(len(to.col))
	return true
}

// gatherCoarse folds node v's edges into the aggregation scratch for coarse
// node c, skipping the internal (contracted) edge.
func (p *Partitioner) gatherCoarse(from *mlLevel, v int, c int32) {
	lo, hi := from.rowPtr[v], from.rowPtr[v+1]
	for t := lo; t < hi; t++ {
		cu := from.cmap[from.col[t]]
		if cu == c {
			continue
		}
		if !p.accSeen[cu] {
			p.accSeen[cu] = true
			p.accTouch = append(p.accTouch, cu)
		}
		p.acc[cu] += from.w[t]
	}
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// seedBisect deterministically assigns coarse nodes to sides, each node to
// the side with the larger remaining deficit (ties to A), which lands the A
// weight within the largest node weight of targetA.
func (p *Partitioner) seedBisect(lv *mlLevel, targetA int32) {
	total := int32(0)
	for v := 0; v < lv.n; v++ {
		total += lv.vw[v]
	}
	targetB := total - targetA
	var wa, wb int32
	for v := 0; v < lv.n; v++ {
		if targetA-wa >= targetB-wb {
			lv.side[v] = 0
			wa += lv.vw[v]
		} else {
			lv.side[v] = 1
			wb += lv.vw[v]
		}
	}
}

func maxVW(lv *mlLevel) int32 {
	var m int32 = 1
	for v := 0; v < lv.n; v++ {
		if lv.vw[v] > m {
			m = lv.vw[v]
		}
	}
	return m
}

// refine runs greedy single-node improvement passes: move a node across the
// cut whenever that strictly reduces the cut weight and keeps the A-side
// weight within tol of targetA. Every applied move strictly decreases the
// cut, so the sweep terminates; nodes are visited in ascending order for
// determinism.
func (p *Partitioner) refine(lv *mlLevel, targetA, tol int32) {
	wa := sideWeight(lv)
	for pass := 0; pass < mlRefinePasses; pass++ {
		moved := false
		for v := 0; v < lv.n; v++ {
			var newWA int32
			if lv.side[v] == 0 {
				newWA = wa - lv.vw[v]
			} else {
				newWA = wa + lv.vw[v]
			}
			if newWA < targetA-tol || newWA > targetA+tol {
				continue
			}
			if gainOf(lv, v) <= 1e-12 {
				continue
			}
			lv.side[v] ^= 1
			wa = newWA
			moved = true
		}
		if !moved {
			break
		}
	}
}

// gainOf returns the cut reduction of moving v to the other side.
func gainOf(lv *mlLevel, v int) float64 {
	var in, out float64
	lo, hi := lv.rowPtr[v], lv.rowPtr[v+1]
	for t := lo; t < hi; t++ {
		if lv.side[lv.col[t]] == lv.side[v] {
			in += lv.w[t]
		} else {
			out += lv.w[t]
		}
	}
	return out - in
}

func sideWeight(lv *mlLevel) int32 {
	var wa int32
	for v := 0; v < lv.n; v++ {
		if lv.side[v] == 0 {
			wa += lv.vw[v]
		}
	}
	return wa
}

// enforceBalance moves least-damaging nodes from the heavy side until the
// A-side weight is within tol of targetA (tol 0 at the finest level, where
// node weights are 1, gives the exact ⌈n/2⌉ split the exact solver makes).
func (p *Partitioner) enforceBalance(lv *mlLevel, targetA, tol int32) {
	wa := sideWeight(lv)
	for iter := 0; iter <= lv.n; iter++ {
		var heavy uint8
		switch {
		case wa > targetA+tol:
			heavy = 0
		case wa < targetA-tol:
			heavy = 1
		default:
			return
		}
		best, bestGain := -1, 0.0
		for v := 0; v < lv.n; v++ {
			if lv.side[v] != heavy {
				continue
			}
			if g := gainOf(lv, v); best < 0 || g > bestGain {
				best, bestGain = v, g
			}
		}
		if best < 0 {
			return // side empty; nothing to rebalance with
		}
		lv.side[best] ^= 1
		if heavy == 0 {
			wa -= lv.vw[best]
		} else {
			wa += lv.vw[best]
		}
	}
}
