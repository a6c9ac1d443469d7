// Structural churn on sparse interference graphs: node arrivals and
// departures as bounded local CSR edits, the ROADMAP direction-2 hot path.
// A freshly built Sparse is packed; InsertNode and RemoveNode edit rows in
// place when slack allows and relocate a row to tail storage when it must
// grow, so a single thread arrival or departure costs O(degree²) array work
// instead of the O(P·m log m) full Builder rebuild. Abandoned storage and
// sparsification misses accumulate in Drift — the observable signal that
// the structure has diverged enough for the caller to schedule a rebuild
// (or a cheap Compact when only storage, not topology, has drifted).
package graph

import (
	"fmt"
	"sort"
)

// Drift summarizes how far a Sparse has diverged from its freshly built,
// packed, fully re-sparsified form. Misses count UpdateWeight calls that
// found no edge (pairs the top-m sparsification dropped, or that only
// became hot after the build): they measure topology drift, which only a
// Builder rebuild repairs. Inserts/Removes count structural edits since the
// build. DeadSlots counts storage abandoned by row relocation and node
// removal: pure fragmentation, reclaimable by Compact without a rebuild.
type Drift struct {
	Misses    int
	Inserts   int
	Removes   int
	DeadSlots int
}

// Drift returns the accumulated drift counters.
func (s *Sparse) Drift() Drift { return s.drift }

// ResetDrift clears the drift counters (after a caller-driven rebuild has
// been swapped in, or a policy decision to re-arm the thresholds).
func (s *Sparse) ResetDrift() { s.drift = Drift{} }

// Frag returns the fraction of edge storage abandoned by relocations and
// removals — 0 for a fresh build, approaching 1 under heavy unreclaimed
// churn. The rebuild-fallback policies in internal/experiments compare this
// against a threshold.
func (s *Sparse) Frag() float64 {
	if len(s.col) == 0 {
		return 0
	}
	return float64(s.drift.DeadSlots) / float64(len(s.col))
}

// churnSlack is the extra capacity granted beyond the immediate need when a
// row is created or relocated, so a burst of inserts into one row amortizes
// to O(degree) amortized per edit instead of relocating every time.
const churnSlack = 4

// InsertNode adds a node adjacent to nbrs with the given weights and
// returns its id, reusing a tombstoned slot when one is free and extending
// the id space otherwise. nbrs and w are sorted by id in place (the
// caller's slices are reordered; pass scratch). Every neighbor must be a
// live node; self-loops, duplicates, and zero weights panic — the caller
// streams exactly the edges it wants, there is no builder-style dedup here.
//
// Cost is O(Σ degree(u)) over the neighbors (each neighbor row shifts or
// relocates once) plus O(d log d) for the sort — bounded local work, never
// a rebuild.
func (s *Sparse) InsertNode(nbrs []int32, w []float64) int {
	if len(nbrs) != len(w) {
		panic(fmt.Sprintf("graph: %d neighbors with %d weights", len(nbrs), len(w)))
	}
	sort.Sort(&rowSorter{nbrs, w})
	for x, u := range nbrs {
		s.check(int(u))
		if s.dead[u] {
			panic(fmt.Sprintf("graph: neighbor %d is removed", u))
		}
		if x > 0 && nbrs[x-1] == u {
			panic(fmt.Sprintf("graph: duplicate neighbor %d", u))
		}
		if w[x] == 0 {
			panic(fmt.Sprintf("graph: zero-weight edge to %d", u))
		}
	}
	v := s.newSlot()
	// v's row: sorted copy of (nbrs, w) in tail storage with slack.
	d := len(nbrs)
	lo := s.grow(d + churnSlack)
	copy(s.col[lo:], nbrs)
	copy(s.wts[lo:], w)
	s.off[v] = int32(lo)
	s.end[v] = int32(lo + d)
	s.lim[v] = int32(lo + d + churnSlack)
	// The reverse half-edges, one bounded row edit per neighbor.
	for x, u := range nbrs {
		s.insertHalf(int(u), int32(v), w[x])
	}
	s.slots += 2 * d
	s.drift.Inserts++
	return v
}

// RemoveNode tombstones node v, stripping its half-edges from every
// neighbor row in O(degree(v) · degree(u)) shifts. The id becomes reusable
// by a later InsertNode; until then reads of v see an empty row and CutK
// assignments must carry a negative group for it.
func (s *Sparse) RemoveNode(v int) {
	s.check(v)
	if s.dead[v] {
		panic(fmt.Sprintf("graph: node %d removed twice", v))
	}
	cols, _ := s.Row(v)
	for _, u := range cols {
		s.removeHalf(int(u), int32(v)) // accounts the u→v slot
	}
	s.slots -= len(cols) // v's own half-edges
	s.drift.DeadSlots += int(s.lim[v] - s.off[v])
	s.drift.Removes++
	s.off[v], s.end[v], s.lim[v] = 0, 0, 0
	s.dead[v] = true
	s.free = append(s.free, int32(v))
	s.alive--
}

// newSlot returns a node id for an arrival: the most recently tombstoned
// slot when one exists, else a fresh id extending every per-node array.
func (s *Sparse) newSlot() int {
	if k := len(s.free); k > 0 {
		v := int(s.free[k-1])
		s.free = s.free[:k-1]
		s.dead[v] = false
		s.alive++
		return v
	}
	v := s.n
	s.n++
	s.alive++
	s.off = append(s.off, 0)
	s.end = append(s.end, 0)
	s.lim = append(s.lim, 0)
	s.dead = append(s.dead, false)
	return v
}

// grow extends the shared edge storage by need slots and returns the first
// new index.
func (s *Sparse) grow(need int) int {
	lo := len(s.col)
	for i := 0; i < need; i++ {
		s.col = append(s.col, -1)
		s.wts = append(s.wts, 0)
	}
	return lo
}

// insertHalf splices the half-edge u→j into u's sorted row: shifting within
// the row's slack when there is any, relocating the row to tail storage
// (abandoning the old region as drift) when there is none. The edge must
// not already be present.
func (s *Sparse) insertHalf(u int, j int32, w float64) {
	lo, hi := int(s.off[u]), int(s.end[u])
	row := s.col[lo:hi]
	k := sort.Search(len(row), func(x int) bool { return row[x] >= j })
	if k < len(row) && row[k] == j {
		panic(fmt.Sprintf("graph: edge {%d,%d} inserted twice", u, j))
	}
	if hi < int(s.lim[u]) {
		copy(s.col[lo+k+1:hi+1], s.col[lo+k:hi])
		copy(s.wts[lo+k+1:hi+1], s.wts[lo+k:hi])
		s.col[lo+k] = j
		s.wts[lo+k] = w
		s.end[u]++
		return
	}
	// No slack: relocate u's row to the tail with the new edge spliced in.
	d := hi - lo
	cap := d + 1 + max(d/2, churnSlack)
	nlo := s.grow(cap)
	copy(s.col[nlo:], s.col[lo:lo+k])
	copy(s.wts[nlo:], s.wts[lo:lo+k])
	s.col[nlo+k] = j
	s.wts[nlo+k] = w
	copy(s.col[nlo+k+1:], s.col[lo+k:hi])
	copy(s.wts[nlo+k+1:], s.wts[lo+k:hi])
	s.drift.DeadSlots += int(s.lim[u]) - lo
	s.off[u] = int32(nlo)
	s.end[u] = int32(nlo + d + 1)
	s.lim[u] = int32(nlo + cap)
}

// removeHalf deletes the half-edge u→j from u's sorted row, leaving the
// vacated slot as in-row slack (reusable, not drift).
func (s *Sparse) removeHalf(u int, j int32) {
	k := s.find(u, int(j))
	if k < 0 {
		panic(fmt.Sprintf("graph: half-edge {%d,%d} missing", u, j))
	}
	hi := int(s.end[u])
	copy(s.col[k:hi-1], s.col[k+1:hi])
	copy(s.wts[k:hi-1], s.wts[k+1:hi])
	s.end[u]--
	s.slots--
}

// Compact repacks the edge storage, dropping every abandoned slot while
// preserving node ids (tombstoned slots stay reusable). O(edges) — the lazy
// counterpart to the per-edit costs above: run it when Frag crosses a
// threshold but Misses do not yet justify a full re-sparsifying rebuild.
func (s *Sparse) Compact() {
	col := make([]int32, 0, s.slots)
	wts := make([]float64, 0, s.slots)
	for i := 0; i < s.n; i++ {
		lo, hi := s.off[i], s.end[i]
		s.off[i] = int32(len(col))
		col = append(col, s.col[lo:hi]...)
		wts = append(wts, s.wts[lo:hi]...)
		s.end[i] = int32(len(col))
		s.lim[i] = s.end[i]
	}
	s.col, s.wts = col, wts
	s.drift.DeadSlots = 0
}
