package monitor

import (
	"testing"

	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
)

func sigView(id, occ int) kernel.View {
	return kernel.View{
		ThreadID:  id,
		HasSig:    true,
		Occupancy: occ,
		Symbiosis: []int32{int32(occ)},
		Overlap:   []int32{int32(occ)},
	}
}

// TestSmoothShrinkThenGrow pins the monitor's per-thread state against
// population churn: departed threads must drop out of the smoothing state,
// the state must shrink with the population, and a reused thread ID must
// start from the fresh reading instead of inheriting the departed thread's
// averages.
func TestSmoothShrinkThenGrow(t *testing.T) {
	mo := New(nil)
	views := make([]kernel.View, 0, 4)
	for id := 0; id < 4; id++ {
		views = append(views, sigView(id, 1000))
	}
	mo.smooth(views)
	mo.smooth(views)
	if len(mo.smoothed) != 4 {
		t.Fatalf("smoothed len %d after 4 threads", len(mo.smoothed))
	}

	// Threads 2 and 3 depart: their state is dropped and the slice shrinks.
	shrunk := views[:2]
	mo.smooth(shrunk)
	if len(mo.smoothed) != 2 {
		t.Fatalf("smoothed len %d after shrink, want 2", len(mo.smoothed))
	}

	// Thread ID 3 is reused by a new thread with a very different profile:
	// the first smoothed reading must be the raw fresh value, not a blend
	// with the departed thread's 1000-scale history.
	regrown := append(append([]kernel.View{}, shrunk...), sigView(3, 10))
	out := mo.smooth(regrown)
	if got := out[2].Occupancy; got != 10 {
		t.Fatalf("reused ID inherited departed state: occupancy %d, want 10", got)
	}
	if len(mo.smoothed) != 4 {
		t.Fatalf("smoothed len %d after regrow, want 4", len(mo.smoothed))
	}
	if mo.smoothed[2] != nil {
		t.Fatal("gap ID 2 has state without a view")
	}

	// Steady state over a fixed population stays alloc-free, churn fix
	// included.
	for i := 0; i < 4; i++ {
		mo.smooth(regrown)
	}
	allocs := testing.AllocsPerRun(50, func() { mo.smooth(regrown) })
	if allocs != 0 {
		t.Fatalf("steady-state smooth allocates %.1f objects, want 0", allocs)
	}
}

func TestForget(t *testing.T) {
	mo := New(nil)
	views := []kernel.View{sigView(0, 1000)}
	mo.smooth(views)
	mo.Forget(0)
	out := mo.smooth([]kernel.View{sigView(0, 10)})
	if got := out[0].Occupancy; got != 10 {
		t.Fatalf("Forget left state: occupancy %d, want 10", got)
	}
	mo.Forget(99) // out of range: no-op
}

// agedPair builds a 3-node triangle and a 2-way partition for aging tests.
func agedPair(t *testing.T) (*graph.Sparse, *graph.Partition) {
	t.Helper()
	b := graph.NewBuilder(4, 0)
	b.Add(0, 1, 8)
	b.Add(1, 2, 6)
	b.Add(0, 2, 4)
	b.Add(2, 3, 2)
	g := b.Build()
	return g, g.NewPartition(2)
}

func TestAgerRefreshBlendsAndDecays(t *testing.T) {
	g, pt := agedPair(t)
	ag := NewAger(0.5, 0.5)
	ag.BeginQuantum()
	ag.BeginQuantum() // edge {0,1} is now 2 quanta stale
	if n := ag.Refresh(g, pt, 0, func(u int) float64 { return 4 }); n != 2 {
		t.Fatalf("refresh updated %d edges, want 2", n)
	}
	// w' = (1-α)·decay²·8 + α·4 = 0.5·0.25·8 + 2 = 3
	if got := g.Weight(0, 1); got != 3 {
		t.Fatalf("aged weight %g, want 3", got)
	}
	// Same-quantum re-refresh ages by 0: w'' = 0.5·3 + 2 = 3.5
	ag.Refresh(g, pt, 0, func(u int) float64 { return 4 })
	if got := g.Weight(0, 1); got != 3.5 {
		t.Fatalf("same-quantum weight %g, want 3.5", got)
	}
	// Cut bookkeeping stays exact through aged updates.
	if got, want := pt.Cut(), g.CutK(pt.Assign()); got-want > 1e-9 || want-got > 1e-9 {
		t.Fatalf("cut %g != recomputed %g", got, want)
	}
}

// TestAgerLazyMatchesEager: an edge untouched for k quanta must see exactly
// decay^k when finally refreshed — the lazy clock reproduces what eager
// whole-graph decay would have produced, at O(degree) instead of O(edges).
func TestAgerLazyMatchesEager(t *testing.T) {
	g, pt := agedPair(t)
	ag := NewAger(0, 0.5) // α=0: pure decay, no fresh blend
	for q := 0; q < 5; q++ {
		ag.BeginQuantum()
		ag.Refresh(g, pt, 0, func(u int) float64 { return 0 }) // keeps 0 fresh
	}
	// Edge {0,1} was refreshed every quantum: 8·(1/2)^5.
	if got, want := g.Weight(0, 1), 8.0/32; got != want {
		t.Fatalf("per-quantum decay: %g, want %g", got, want)
	}
	// Edge {1,2} was never refreshed: still stale at full weight...
	if got := g.Weight(1, 2); got != 6 {
		t.Fatalf("untouched edge moved: %g", got)
	}
	// ...until node 1's refresh applies all 5 quanta in one multiply.
	ag.Refresh(g, pt, 1, func(u int) float64 { return 0 })
	if got, want := g.Weight(1, 2), 6.0/32; got != want {
		t.Fatalf("lazy catch-up decay: %g, want %g", got, want)
	}
	if got, want := pt.Cut(), g.CutK(pt.Assign()); got-want > 1e-9 || want-got > 1e-9 {
		t.Fatalf("cut %g != recomputed %g", got, want)
	}
}

// TestAgerChurn: inserted nodes start their clock at the current quantum
// (no phantom staleness), including when an id is reused.
func TestAgerChurn(t *testing.T) {
	g, pt := agedPair(t)
	ag := NewAger(0, 0.5)
	for q := 0; q < 4; q++ {
		ag.BeginQuantum()
	}
	p := graph.NewPartitioner()
	p.RemoveAndRepair(g, pt, 3)
	v, _ := p.InsertAndRepair(g, pt, []int32{0}, []float64{10})
	if v != 3 {
		t.Fatalf("expected id reuse, got %d", v)
	}
	ag.NodeInserted(v)
	ag.Refresh(g, pt, v, func(u int) float64 { return 0 })
	// Age 0 at insertion quantum: weight must be untouched by decay.
	if got := g.Weight(v, 0); got != 10 {
		t.Fatalf("fresh node's edge decayed: %g", got)
	}
}

func TestAgerSteadyStateAllocs(t *testing.T) {
	g, pt := agedPair(t)
	ag := NewAger(0.5, 0.9)
	fresh := func(u int) float64 { return 5 }
	for q := 0; q < 8; q++ { // warm the pow cache past any age we'll see
		ag.BeginQuantum()
	}
	ag.Refresh(g, pt, 0, fresh)
	allocs := testing.AllocsPerRun(100, func() {
		ag.BeginQuantum()
		ag.Refresh(g, pt, 0, fresh)
		ag.Refresh(g, pt, 1, fresh)
		ag.Refresh(g, pt, 2, fresh)
	})
	if allocs != 0 {
		t.Fatalf("steady-state aging allocates %.1f objects, want 0", allocs)
	}
}

// TestAgerResetMatchesFresh: an Ager whose clocks, quantum and decay cache
// were run far ahead, once Reset, ages and blends every edge to the same
// bits as a fresh NewAger, and a warm Reset allocates nothing.
func TestAgerResetMatchesFresh(t *testing.T) {
	run := func(ag *Ager, quanta int) []float64 {
		g, pt := agedPair(t)
		for q := 0; q < quanta; q++ {
			ag.BeginQuantum()
			if q%3 != 1 {
				ag.Refresh(g, pt, q%4, func(u int) float64 { return float64(u + q) })
			}
		}
		var wts []float64
		for v := 0; v < g.Len(); v++ {
			_, w := g.Row(v)
			wts = append(wts, w...)
		}
		return wts
	}
	used := NewAger(0.5, 0.9)
	run(used, 40)
	used.Reset()
	got, want := run(used, 9), run(NewAger(0.5, 0.9), 9)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge slot %d: %v after Reset, %v fresh", i, got, want)
		}
	}
	if a := testing.AllocsPerRun(10, used.Reset); a != 0 {
		t.Fatalf("Reset allocates %.1f objects", a)
	}
}
