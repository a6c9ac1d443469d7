// Incremental partition repair: the enabler for online re-scheduling every
// quantum (ROADMAP direction 2). A signature delta changes a handful of
// interference weights; instead of recomputing the k-way partition from
// scratch, the caller updates the affected edges (Partition.UpdateWeight)
// and calls Partitioner.Repair with the touched nodes — a localized boundary
// refinement that mends the cut while preserving the ±1 balance invariant.
package graph

import (
	"fmt"
	"slices"
)

const repairPasses = 8

// Partition is a k-way node→group assignment with the bookkeeping repair
// needs: group sizes, the live-node count, and an incrementally maintained
// cut weight. Tombstoned graph nodes carry assignment -1.
type Partition struct {
	assign []int32
	sizes  []int32
	k      int
	alive  int32 // sum of sizes: assigned (live) nodes
	cut    float64
}

// PartitionFromGroups wraps a group list (as returned by PartitionK) for the
// graph g. Every live node must appear in exactly one group; tombstoned
// nodes must appear in none.
func PartitionFromGroups(g *Sparse, groups [][]int) *Partition {
	pt := &Partition{
		assign: make([]int32, g.n),
		sizes:  make([]int32, len(groups)),
		k:      len(groups),
	}
	for i := range pt.assign {
		pt.assign[i] = -1
	}
	for gi, grp := range groups {
		for _, v := range grp {
			g.check(v)
			if g.dead[v] {
				panic(fmt.Sprintf("graph: removed node %d in a group", v))
			}
			if pt.assign[v] >= 0 {
				panic(fmt.Sprintf("graph: node %d in two groups", v))
			}
			pt.assign[v] = int32(gi)
		}
		pt.sizes[gi] = int32(len(grp))
		pt.alive += int32(len(grp))
	}
	for v, a := range pt.assign {
		if a < 0 && !g.dead[v] {
			panic(fmt.Sprintf("graph: node %d in no group", v))
		}
	}
	pt.cut = g.CutK(pt.assign)
	return pt
}

// syncLen grows the assignment to cover node ids appended to g by
// InsertNode since the partition was built.
func (pt *Partition) syncLen(g *Sparse) {
	for len(pt.assign) < g.n {
		pt.assign = append(pt.assign, -1)
	}
}

// NewPartition partitions g into k groups and wraps the result for repair:
// Partitioner.Partition on a fresh arena and a fresh Partition, so the
// multilevel scratch, which is sized by the whole graph, dies with the call.
// A caller that re-partitions and repairs over and over, as the churn
// campaign does, keeps one Partitioner and one Partition instead.
func (s *Sparse) NewPartition(k int) *Partition {
	return NewPartitioner().Partition(s, k, nil)
}

// Partition partitions g into k groups as PartitionInto does and wraps the
// assignment for repair in pt, reusing pt's storage (a nil pt gets a fresh
// Partition), and returns it. Whatever pt held before is discarded. The
// result equals PartitionFromGroups over PartitionK's groups, and with a
// warm arena and partition the call allocates nothing.
func (p *Partitioner) Partition(g *Sparse, k int, pt *Partition) *Partition {
	if pt == nil {
		pt = new(Partition)
	}
	pt.assign = p.PartitionInto(g, k, pt.assign)
	pt.sizes = growI32(pt.sizes, k)
	clear(pt.sizes)
	pt.k, pt.alive = k, 0
	for _, a := range pt.assign {
		if a >= 0 {
			pt.sizes[a]++
			pt.alive++
		}
	}
	pt.cut = g.CutK(pt.assign)
	return pt
}

// K returns the group count.
func (pt *Partition) K() int { return pt.k }

// Alive returns the number of assigned (live) nodes.
func (pt *Partition) Alive() int { return int(pt.alive) }

// Cut returns the incrementally maintained cut weight.
func (pt *Partition) Cut() float64 { return pt.cut }

// Group returns the group of node v.
func (pt *Partition) Group(v int) int { return int(pt.assign[v]) }

// Assign returns the node→group assignment. The slice aliases the
// partition's state and must not be modified.
func (pt *Partition) Assign() []int32 { return pt.assign }

// Groups materializes the partition as sorted groups, the PartitionK shape.
func (pt *Partition) Groups() [][]int { return groupsOf(pt.assign, pt.k) }

// UpdateWeight overwrites the weight of existing edge {i,j} through
// Sparse.UpdateWeight and keeps the partition's cut bookkeeping in sync.
// Reports false (and changes nothing) when the edge is not in the graph —
// the signal, counted by Sparse.Drift, that the sparsified structure has
// drifted and a rebuild is due.
func (pt *Partition) UpdateWeight(g *Sparse, i, j int, w float64) bool {
	old := g.Weight(i, j)
	if !g.UpdateWeight(i, j, w) {
		return false
	}
	if pt.assign[i] != pt.assign[j] {
		pt.cut += w - old
	}
	return true
}

// absorb assigns the freshly inserted node v to the group it is most
// connected to among the groups with room under the post-insertion balance
// ceiling (falling back to the smallest such group when v has no edges;
// ties break toward the smaller group id), and updates the size and cut
// bookkeeping. Such a group always exists. InsertAndRepair then lets the
// neighborhood settle.
func (p *Partitioner) absorb(g *Sparse, pt *Partition, v int) int {
	g.check(v)
	pt.syncLen(g)
	if pt.assign[v] >= 0 {
		panic(fmt.Sprintf("graph: node %d absorbed twice", v))
	}
	k := pt.k
	ceil := int32((int(pt.alive) + 1 + k - 1) / k)
	p.conn = growF64(p.conn, k)
	for i := 0; i < k; i++ {
		p.conn[i] = 0
	}
	var total float64
	cols, wts := g.Row(v)
	for t, u := range cols {
		if d := pt.assign[u]; d >= 0 {
			p.conn[d] += wts[t]
			total += wts[t]
		}
	}
	best := int32(-1)
	for d := int32(0); d < int32(k); d++ {
		if pt.sizes[d]+1 > ceil {
			continue
		}
		switch {
		case best < 0:
			best = d
		case p.conn[d] > p.conn[best]:
			best = d
		case p.conn[d] == p.conn[best] && pt.sizes[d] < pt.sizes[best]:
			best = d
		}
	}
	pt.assign[v] = best
	pt.sizes[best]++
	pt.alive++
	pt.cut += total - p.conn[best]
	return int(best)
}

// Remove unassigns node v, subtracting its crossing edges from the cut.
// Call it BEFORE Sparse.RemoveNode — the edges must still be readable — and
// follow with Partitioner.Repair (or use Partitioner.RemoveAndRepair) to
// restore the balance envelope, which one departure can break.
func (pt *Partition) Remove(g *Sparse, v int) {
	g.check(v)
	c := pt.assign[v]
	if c < 0 {
		panic(fmt.Sprintf("graph: node %d removed from partition twice", v))
	}
	cols, wts := g.Row(v)
	for t, u := range cols {
		if d := pt.assign[u]; d >= 0 && d != c {
			pt.cut -= wts[t]
		}
	}
	pt.assign[v] = -1
	pt.sizes[c]--
	pt.alive--
}

// InsertAndRepair is the arrival hot path: insert the node into the graph
// (bounded local CSR edits), absorb it into the partition within the
// balance envelope, and repair the surrounding cut, all on this arena's
// scratch. Returns the new node id and the number of reassignments the
// repair applied beyond the arrival's own initial placement — the
// placement-stability metric (a fresh re-partition would instead reshuffle
// without bound). nbrs/w are reordered in place, as by Sparse.InsertNode.
func (p *Partitioner) InsertAndRepair(g *Sparse, pt *Partition, nbrs []int32, w []float64) (v, migrations int) {
	v = g.InsertNode(nbrs, w)
	p.absorb(g, pt, v)
	p.beginSeed(g)
	p.seedNode(g, int32(v))
	return v, p.finishRepair(g, pt)
}

// RemoveAndRepair is the departure hot path: drop node v from the partition
// and the graph, then repair around its former neighborhood — including the
// forced rebalance when the departure broke the ±1 envelope — on this
// arena's scratch. Returns the reassignment count.
func (p *Partitioner) RemoveAndRepair(g *Sparse, pt *Partition, v int) (migrations int) {
	p.beginSeed(g)
	p.seedNode(g, int32(v)) // v's neighbors, captured before the edges vanish
	pt.Remove(g, v)
	g.RemoveNode(v)
	return p.finishRepair(g, pt)
}

// Repair mends the cut around the touched nodes after weight updates and
// churn, on this arena's scratch, and returns the number of node
// reassignments applied (a swap counts both endpoints). It is a localized
// greedy refinement seeded by the touched nodes and their neighbors. Single
// moves apply when the group sizes stay within the balanced ⌊n/k⌋..⌈n/k⌉
// envelope over the live nodes; otherwise the best balance-preserving swap
// with a neighbor in the target group is tried. Every applied change
// strictly reduces the cut; the active set expands to moved nodes'
// neighborhoods, bounded by a fixed pass budget. When churn has pushed the
// group sizes outside the envelope, a forced rebalance pre-pass restores it
// with the least-damaging moves before the refinement runs.
func (p *Partitioner) Repair(g *Sparse, pt *Partition, touched []int) int {
	p.beginSeed(g)
	for _, v := range touched {
		g.check(v)
		p.seedNode(g, int32(v))
	}
	return p.finishRepair(g, pt)
}

// beginSeed resets the active-set scratch for a repair over g.
func (p *Partitioner) beginSeed(g *Sparse) {
	p.activeIn = growBool(p.activeIn, g.n)
	for i := range p.activeIn {
		p.activeIn[i] = false
	}
	p.active = p.active[:0]
}

// seedNode adds v and its current neighbors to the repair's active set.
func (p *Partitioner) seedNode(g *Sparse, v int32) {
	p.seed(v)
	cols, _ := g.Row(int(v))
	for _, u := range cols {
		p.seed(u)
	}
}

func (p *Partitioner) seed(v int32) {
	if !p.activeIn[v] {
		p.activeIn[v] = true
		p.active = append(p.active, v)
	}
}

// finishRepair runs the forced rebalance and the greedy refinement over the
// seeded active set, returning the total reassignment count.
func (p *Partitioner) finishRepair(g *Sparse, pt *Partition) int {
	n := g.n
	pt.syncLen(g)
	if len(pt.assign) != n {
		panic(fmt.Sprintf("graph: partition of %d nodes for %d-node graph", len(pt.assign), n))
	}
	k := pt.k
	na := int(pt.alive)
	floor := int32(na / k)
	ceil := int32((na + k - 1) / k)
	p.conn = growF64(p.conn, k)
	p.connSeen = growBool(p.connSeen, k)
	for i := 0; i < k; i++ {
		p.conn[i] = 0
		p.connSeen[i] = false
	}
	slices.Sort(p.active)

	moves := p.rebalance(g, pt, floor, ceil)
	for pass := 0; pass < repairPasses && len(p.active) > 0; pass++ {
		p.nextAct = p.nextAct[:0]
		changed := false
		for _, v32 := range p.active {
			v := int(v32)
			c := pt.assign[v]
			if c < 0 {
				continue // tombstoned or unassigned under churn
			}
			cols, wts := g.Row(v)
			// Connection weights from v to each adjacent group.
			p.connTouch = p.connTouch[:0]
			for t, u := range cols {
				d := pt.assign[u]
				if d < 0 {
					continue
				}
				if !p.connSeen[d] {
					p.connSeen[d] = true
					p.connTouch = append(p.connTouch, d)
				}
				p.conn[d] += wts[t]
			}
			// Best single move: max gain, ties to the smallest group id,
			// broken explicitly because connTouch is in first-seen order.
			best, bestGain := int32(-1), 1e-12
			for _, d := range p.connTouch {
				if d == c {
					continue
				}
				if gain := p.conn[d] - p.conn[c]; gain > bestGain || gain == bestGain && best >= 0 && d < best {
					best, bestGain = d, gain
				}
			}
			applied := 0
			if best >= 0 && pt.sizes[c]-1 >= floor && pt.sizes[best]+1 <= ceil {
				pt.assign[v] = best
				pt.sizes[c]--
				pt.sizes[best]++
				pt.cut -= bestGain
				applied = 1
			} else if best >= 0 {
				// Balance forbids the move: look for a profitable swap with
				// a neighbor in any better-connected group.
				swapU, swapD, swapGain := int32(-1), int32(-1), 1e-12
				for t, u := range cols {
					d := pt.assign[u]
					if d < 0 || d == c || p.conn[d]-p.conn[c] <= 1e-12 {
						continue
					}
					uc, ud := p.connTwo(g, pt, int(u), c, d)
					gain := (p.conn[d] - p.conn[c]) + (uc - ud) - 2*wts[t]
					if gain > swapGain || (gain == swapGain && swapU >= 0 && u < swapU) {
						swapU, swapD, swapGain = u, d, gain
					}
				}
				if swapU >= 0 {
					pt.assign[v] = swapD
					pt.assign[swapU] = c
					pt.cut -= swapGain
					applied = 2 // both endpoints reassigned
					if !p.activeIn[swapU] {
						p.activeIn[swapU] = true
					}
					p.nextAct = append(p.nextAct, swapU)
				}
			}
			for _, d := range p.connTouch {
				p.conn[d] = 0
				p.connSeen[d] = false
			}
			if applied > 0 {
				moves += applied
				changed = true
				for _, u := range cols {
					if !p.activeIn[u] {
						p.activeIn[u] = true
						p.nextAct = append(p.nextAct, u)
					}
				}
			}
		}
		if !changed {
			break
		}
		p.active = append(p.active, p.nextAct...)
		slices.Sort(p.active)
		p.active = slices.Compact(p.active)
	}
	return moves
}

// rebalance restores the ⌊na/k⌋..⌈na/k⌉ envelope when churn broke it: while
// any group sits under the floor it steals the least-damaging node from the
// largest group, and while any group sits over the ceiling it expels that
// group's least-damaging node into the smallest group. A single arrival or
// departure perturbs the envelope by at most one node, so in the steady
// churn loop this is at most one forced move; on an already balanced
// partition it is a no-op (the pre-churn Repair behavior is unchanged).
// Moved nodes join the active set so the refinement can settle them.
// Returns the reassignment count.
func (p *Partitioner) rebalance(g *Sparse, pt *Partition, floor, ceil int32) int {
	moves := 0
	for iter := 0; iter <= g.n; iter++ {
		// Deterministic victim groups: smallest size first for deficits,
		// largest first for overflows, ties to the smaller group id.
		var small, big int32 = 0, 0
		for d := int32(1); d < int32(pt.k); d++ {
			if pt.sizes[d] < pt.sizes[small] {
				small = d
			}
			if pt.sizes[d] > pt.sizes[big] {
				big = d
			}
		}
		var from, to int32
		switch {
		case pt.sizes[small] < floor:
			from, to = big, small
		case pt.sizes[big] > ceil:
			from, to = big, small
		default:
			return moves
		}
		// The node in `from` whose move to `to` damages the cut least.
		best, bestGain := int32(-1), 0.0
		for v := 0; v < g.n; v++ {
			if pt.assign[v] != from {
				continue
			}
			wf, wt := p.connTwo(g, pt, v, from, to)
			if gain := wt - wf; best < 0 || gain > bestGain {
				best, bestGain = int32(v), gain
			}
		}
		if best < 0 {
			return moves // from-group empty: nothing to rebalance with
		}
		pt.assign[best] = to
		pt.sizes[from]--
		pt.sizes[to]++
		pt.cut -= bestGain
		moves++
		p.seedNode(g, best)
		slices.Sort(p.active)
	}
	return moves
}

// connTwo returns node u's connection weights to groups c and d.
func (p *Partitioner) connTwo(g *Sparse, pt *Partition, u int, c, d int32) (wc, wd float64) {
	cols, wts := g.Row(u)
	for t, x := range cols {
		switch pt.assign[x] {
		case c:
			wc += wts[t]
		case d:
			wd += wts[t]
		}
	}
	return wc, wd
}
