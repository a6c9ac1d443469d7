// Incremental signature aging for the sparse interference graph. Between
// monitor quanta a thread's footprint signature goes stale: the overlap it
// reported N quanta ago says less and less about the cache pressure it exerts
// now. Rather than decaying every edge every quantum (O(P·m) work that would
// dominate the monitor loop at scale), the Ager ages lazily: each node
// carries the quantum it was last refreshed, and when an edge is next
// touched the accumulated decay decay^age is applied in one multiply before
// the fresh reading is blended in. Per refresh the cost is O(degree) — the
// same bound as the structural churn edits it composes with.
package monitor

import (
	"symbiosched/internal/graph"
)

// Ager maintains per-node staleness clocks over a sparse interference graph
// and folds fresh pairwise interference readings into aged edge weights.
type Ager struct {
	// Alpha is the weight of the fresh reading in the blend:
	// w' = (1-Alpha)·decay^age·w + Alpha·fresh. 1 overwrites (no memory),
	// 0 pure decay (ignores fresh readings).
	Alpha float64
	// Decay is the per-quantum retention of the stale estimate, in (0,1].
	// 1 disables aging (plain EMA on refresh).
	Decay float64

	quantum  int32
	lastSeen []int32   // per node: quantum of its last refresh
	pow      []float64 // pow[a] = Decay^a, extended lazily
}

// NewAger returns an Ager with the given blend factor and per-quantum decay.
func NewAger(alpha, decay float64) *Ager {
	return &Ager{Alpha: alpha, Decay: decay, pow: []float64{1}}
}

// Reset restarts every clock, leaving the Ager as NewAger(Alpha, Decay)
// returns it but keeping its storage, so an Ager that restarts with each
// graph rebuild allocates nothing once warm.
func (ag *Ager) Reset() {
	ag.quantum = 0
	ag.lastSeen = ag.lastSeen[:0]
	ag.pow = ag.pow[:1]
}

// BeginQuantum advances the staleness clock; call once per monitor period
// before any Refresh of that period.
func (ag *Ager) BeginQuantum() { ag.quantum++ }

// Quantum returns the current staleness clock value.
func (ag *Ager) Quantum() int { return int(ag.quantum) }

// NodeInserted marks node v as freshly observed at the current quantum. Call
// it when a thread arrives (including when its id reuses a departed
// thread's slot — the stale clock must not carry over).
func (ag *Ager) NodeInserted(v int) {
	ag.growTo(v)
	ag.lastSeen[v] = ag.quantum
}

// growTo extends the clock array to cover node v. Back-fill is 0 — nodes the
// Ager has never been told about date from the build, not from now.
func (ag *Ager) growTo(v int) {
	for v >= len(ag.lastSeen) {
		ag.lastSeen = append(ag.lastSeen, 0)
	}
}

// Refresh re-profiles node v: every incident edge {v,u} is aged by the
// quanta elapsed since its later endpoint was refreshed, then blended with
// the fresh pairwise reading fresh(u). Updates flow through
// Partition.UpdateWeight so the cut bookkeeping stays exact; pair with
// graph.Partitioner.Repair to let the new weights move nodes. Returns the
// number of edges updated. O(degree(v)) plus the caller's fresh cost.
func (ag *Ager) Refresh(g *graph.Sparse, pt *graph.Partition, v int, fresh func(u int) float64) int {
	ag.growTo(v)
	cols, wts := g.Row(v)
	updated := 0
	for t, u := range cols {
		last := ag.lastSeen[v]
		if int(u) < len(ag.lastSeen) && ag.lastSeen[u] > last {
			last = ag.lastSeen[u]
		}
		aged := ag.decayPow(ag.quantum-last) * wts[t]
		w := (1-ag.Alpha)*aged + ag.Alpha*fresh(int(u))
		if pt.UpdateWeight(g, v, int(u), w) {
			updated++
		}
	}
	ag.lastSeen[v] = ag.quantum
	return updated
}

// decayPow returns Decay^age through a lazily extended cache, so steady-state
// refreshes never call math.Pow and allocate only when a node goes staler
// than any before it.
func (ag *Ager) decayPow(age int32) float64 {
	if age <= 0 {
		return 1
	}
	for int(age) >= len(ag.pow) {
		ag.pow = append(ag.pow, ag.pow[len(ag.pow)-1]*ag.Decay)
	}
	return ag.pow[age]
}
