package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
)

func testChurnConfig() ChurnConfig {
	return ChurnConfig{
		Mode:        "poisson",
		Seed:        7,
		P0:          96,
		Cores:       8,
		Quanta:      60,
		ArrivalRate: 2,
		MeanLife:    48,
		RefreshFrac: 0.1,
		FragLimit:   0.5,
		MissLimit:   1 << 30, // effectively off: exercise the pure incremental path
	}
}

// testChurnTraceConfig is a trace-mode campaign dense enough in events to
// trip both drift fallbacks: storage compaction and the miss-driven rebuild.
func testChurnTraceConfig() ChurnConfig {
	var sched []ChurnEvent
	for q := 0; q < 40; q++ {
		sched = append(sched, ChurnEvent{Quantum: q, Arrive: true})
		if q%2 == 1 {
			sched = append(sched, ChurnEvent{Quantum: q}, ChurnEvent{Quantum: q})
		}
	}
	return ChurnConfig{
		Mode:        "trace",
		Seed:        11,
		P0:          48,
		Cores:       8,
		Quanta:      40,
		Schedule:    sched,
		TopM:        8,
		RefreshFrac: 0.2,
		FragLimit:   0.3,
		MissLimit:   8,
	}
}

// TestChurnDeterministic: one seed, one campaign, one byte sequence — the
// whole loop (Poisson arrivals, geometric departures, top-m splice, repair,
// aging, drift fallback) must be replayable.
func TestChurnDeterministic(t *testing.T) {
	a, err := json.Marshal(RunChurn(testChurnConfig()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(RunChurn(testChurnConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("same seed, different reports:\n%s\n%s", a, b)
	}
	// A different seed must actually change the outcome (the checksum is
	// not a constant).
	cfg := testChurnConfig()
	cfg.Seed = 8
	c, _ := json.Marshal(RunChurn(cfg))
	if string(a) == string(c) {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestChurnPoissonCampaign(t *testing.T) {
	rep := RunChurn(testChurnConfig())
	if rep.Arrivals == 0 || rep.Departures == 0 {
		t.Fatalf("no churn happened: %+v", rep)
	}
	if rep.Rebuilds != 0 {
		t.Fatalf("rebuild fallback fired with MissLimit off: %+v", rep)
	}
	if rep.Refreshes == 0 {
		t.Fatal("aging refresh never updated an edge")
	}
	if rep.FinalAlive <= 0 {
		t.Fatalf("population died out: %+v", rep)
	}
	if rep.Checksum == "" {
		t.Fatal("no checksum")
	}
}

// TestChurnTraceMode drives an explicit schedule and checks exact counts:
// trace mode is the reproducible-experiment interface.
func TestChurnTraceMode(t *testing.T) {
	cfg := ChurnConfig{
		Mode:   "trace",
		Seed:   3,
		P0:     32,
		Cores:  4,
		Quanta: 10,
		Schedule: []ChurnEvent{
			{Quantum: 1, Arrive: true},
			{Quantum: 2, Arrive: true},
			{Quantum: 3, Arrive: false},
			{Quantum: 5, Arrive: false},
			{Quantum: 5, Arrive: false},
			{Quantum: 9, Arrive: true},
		},
		RefreshFrac: 0.25,
	}
	rep := RunChurn(cfg)
	if rep.Arrivals != 3 || rep.Departures != 3 {
		t.Fatalf("trace counts: %+v", rep)
	}
	if rep.FinalAlive != 32 {
		t.Fatalf("final population %d, want 32", rep.FinalAlive)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(RunChurn(cfg))
	if string(a) != string(b) {
		t.Fatal("trace campaign not deterministic")
	}
}

// TestChurnRebuildFallback: with a tight miss budget the drift probe must
// eventually trip the auto-rebuild, and the campaign must keep running
// correctly afterwards.
func TestChurnRebuildFallback(t *testing.T) {
	cfg := testChurnConfig()
	cfg.MissLimit = 1
	cfg.Quanta = 80
	rep := RunChurn(cfg)
	if rep.Rebuilds == 0 {
		t.Fatalf("tight MissLimit never triggered a rebuild: %+v", rep)
	}
	if rep.Misses == 0 {
		t.Fatalf("no sparsification misses recorded: %+v", rep)
	}
	if rep.FinalAlive <= 0 {
		t.Fatalf("campaign broke after rebuild: %+v", rep)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(RunChurn(cfg))
	if string(a) != string(b) {
		t.Fatal("rebuild path not deterministic")
	}
}

// TestChurnObserverDoesNotChangeReport: timing observation must be free of
// side effects on the deterministic outcome.
func TestChurnObserverDoesNotChangeReport(t *testing.T) {
	plain, _ := json.Marshal(RunChurn(testChurnConfig()))
	cfg := testChurnConfig()
	events := 0
	cfg.OnEvent = func(kind string, d time.Duration) {
		events++
		if d < 0 {
			t.Errorf("negative duration for %s", kind)
		}
	}
	observed, _ := json.Marshal(RunChurn(cfg))
	if string(plain) != string(observed) {
		t.Fatal("observer changed the report")
	}
	if events == 0 {
		t.Fatal("observer never fired")
	}
}

// TestChurnGolden pins RunChurn's checksums, so a change to the arrival,
// departure, repair or compaction path that alters any decision fails here
// rather than only in the benchmark ledger. The two cmd/bench campaigns
// carry the checksums recorded in results/BENCH_2026-08-06.json.
func TestChurnGolden(t *testing.T) {
	bench := func(p int) ChurnConfig {
		return ChurnConfig{
			Mode:        "poisson",
			Seed:        42,
			P0:          p,
			Cores:       p / 16,
			Quanta:      200,
			ArrivalRate: 2,
			MeanLife:    float64(p),
			RefreshFrac: 0.5 / float64(p),
			FragLimit:   0.6,
		}
	}
	for _, tc := range []struct {
		name               string
		cfg                ChurnConfig
		want               string
		compacts, rebuilds bool // the campaign must take these fallbacks
	}{
		{"testChurnConfig", testChurnConfig(), "0f6db3d20360ad52", true, false},
		{"testChurnTraceConfig", testChurnTraceConfig(), "c9199c6a676686ec", true, true},
		{"bench P=256 k=16", bench(256), "d3f0e0c70dcbd70c", false, false},
		{"bench P=1024 k=64", bench(1024), "7554a238993083c1", false, false},
	} {
		rep := RunChurn(tc.cfg)
		if rep.Checksum != tc.want {
			t.Errorf("%s: checksum %s, want %s (%+v)", tc.name, rep.Checksum, tc.want, rep)
		}
		if rep.Arrivals == 0 || rep.Departures == 0 || tc.compacts && rep.Compacts == 0 || tc.rebuilds && rep.Rebuilds == 0 {
			t.Errorf("%s: campaign exercises too little: %+v", tc.name, rep)
		}
	}
}

// selectionTopPartners is the selection-sort partner choice topPartners
// replaced: score every live thread, then TopM passes that each move the
// heaviest remaining partner (ties to the smaller id) to the front. It is
// the oracle for the one-pass window.
func selectionTopPartners(cc *churnCampaign, view *kernel.View) ([]int32, []float64) {
	var nbrs []int32
	var wts []float64
	for u := range cc.views {
		if cc.born[u] < 0 {
			continue
		}
		if w := alloc.PairWeight(view, &cc.views[u]); w > 0 {
			nbrs = append(nbrs, int32(u))
			wts = append(wts, w)
		}
	}
	m := min(cc.cfg.TopM, len(nbrs))
	for i := 0; i < m; i++ {
		best := i
		for j := i + 1; j < len(nbrs); j++ {
			if wts[j] > wts[best] || (wts[j] == wts[best] && nbrs[j] < nbrs[best]) {
				best = j
			}
		}
		nbrs[i], nbrs[best] = nbrs[best], nbrs[i]
		wts[i], wts[best] = wts[best], wts[i]
	}
	return nbrs[:m], wts[:m]
}

// tieView is a thread view whose overlaps are small integers (all zero with
// zero set), so partner weights collide often.
func tieView(rng *rand.Rand, id, cores int, zero bool) kernel.View {
	ov := make([]int32, cores)
	if !zero {
		for c := range ov {
			ov[c] = int32(rng.Intn(4))
		}
	}
	return kernel.View{ThreadID: id, ProcID: id, Threads: 1, LastCore: rng.Intn(cores),
		Symbiosis: make([]int32, cores), Overlap: ov, HasSig: true}
}

// TestChurnTopPartnersMatchesSelection: the window must return exactly the
// selection sort's (nbrs, wts) sequence over alloc.PairWeight — the order
// reaches Partition.UpdateWeight through probe — over seeded populations
// written through store, with dead slots (some still carrying a signature)
// and heavy weight ties, TopM from 1 to 24, including fewer live partners
// than TopM and all-zero weights.
func TestChurnTopPartnersMatchesSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	short, empty, signedDead := 0, 0, 0
	for trial := 0; trial < 2000; trial++ {
		cores := 1 + rng.Intn(6)
		zero := trial%16 == 0
		cc := &churnCampaign{cfg: ChurnConfig{TopM: 1 + trial%24, Cores: cores}}
		p := rng.Intn(80)
		cc.reserve(p / 2) // the rest of the population takes the growth path
		for u := 0; u < p; u++ {
			view, born := tieView(rng, u, cores, zero), u
			if rng.Intn(4) == 0 {
				born = -1
				if rng.Intn(2) == 0 {
					view = kernel.View{ThreadID: u}
				} else {
					signedDead++
				}
			}
			cc.store(u, view, born)
		}
		// An arrival's fresh view, or a live member's own as probe passes.
		view := tieView(rng, -1, cores, zero)
		if live := slices.IndexFunc(cc.born, func(b int) bool { return b >= 0 }); live >= 0 && trial%3 == 0 {
			view = cc.views[live]
		}
		wantN, wantW := selectionTopPartners(cc, &view)
		gotN, gotW := cc.topPartners(&view)
		if !slices.Equal(gotN, wantN) || !slices.Equal(gotW, wantW) {
			t.Fatalf("trial %d (P=%d TopM=%d): window %v %v, selection %v %v",
				trial, p, cc.cfg.TopM, gotN, gotW, wantN, wantW)
		}
		if len(wantN) < cc.cfg.TopM {
			short++
		}
		if len(wantN) == 0 {
			empty++
		}
	}
	if short < 100 || empty < 50 || signedDead < 100 {
		t.Fatalf("too few degenerate cases: %d short of TopM, %d empty, %d dead with a signature", short, empty, signedDead)
	}
}

// checkScoreIndex fails t unless every id's score-index entries mirror its
// view: LastCore and Overlap for a live id, lastCore 0 and deadScore in
// every column for a dead one, over columns exactly as long as the view
// table.
func checkScoreIndex(t *testing.T, cc *churnCampaign, when string) {
	t.Helper()
	n := len(cc.views)
	if len(cc.born) != n || len(cc.lastCore) != n || len(cc.cols) != cc.cfg.Cores {
		t.Fatalf("%s: %d views, %d born, %d lastCore, %d columns for %d cores",
			when, n, len(cc.born), len(cc.lastCore), len(cc.cols), cc.cfg.Cores)
	}
	for c, col := range cc.cols {
		if len(col) != n {
			t.Fatalf("%s: column %d holds %d ids, want %d", when, c, len(col), n)
		}
	}
	for u := range cc.views {
		wantLast, live := int32(0), cc.born[u] >= 0
		if live {
			wantLast = int32(cc.views[u].LastCore)
		}
		if cc.lastCore[u] != wantLast {
			t.Fatalf("%s: id %d (live %v) has lastCore %d, want %d", when, u, live, cc.lastCore[u], wantLast)
		}
		for c, col := range cc.cols {
			want := int32(deadScore)
			if live {
				want = cc.views[u].Overlap[c]
			}
			if col[u] != want {
				t.Fatalf("%s: id %d (live %v) column %d holds %d, want %d", when, u, live, c, col[u], want)
			}
		}
	}
}

// TestChurnScoreIndexMirrorsViews: after the seed and after every event of
// a Poisson and a trace campaign — arrivals past the seeded id range,
// departures, refreshes, compactions and drift rebuilds — every id's
// score-index entries equal its view's, or the dead value for a dead id.
func TestChurnScoreIndexMirrorsViews(t *testing.T) {
	poisson := testChurnConfig()
	poisson.MissLimit, poisson.Quanta = 12, 80 // both fallbacks fire
	for _, cfg := range []ChurnConfig{poisson, testChurnTraceConfig()} {
		var cc *churnCampaign
		q := 0
		cfg.OnEvent = func(kind string, _ time.Duration) {
			checkScoreIndex(t, cc, fmt.Sprintf("%s quantum %d after %s", cfg.Mode, q, kind))
		}
		cc = newChurnCampaign(cfg)
		checkScoreIndex(t, cc, cfg.Mode+" seed")
		for ; q < cfg.Quanta; q++ {
			cc.quantum(q)
		}
		rep := cc.report()
		if len(cc.views) <= cfg.P0 || rep.Departures == 0 || rep.Compacts == 0 || rep.Rebuilds == 0 {
			t.Fatalf("%s: campaign exercises too little: %d ids for P0 %d, %+v", cfg.Mode, len(cc.views), cfg.P0, rep)
		}
	}
}

// TestChurnTopPartnersZeroAllocs: once its scratch has grown, partner
// selection allocates nothing, for an arrival's view and a probe's alike.
func TestChurnTopPartnersZeroAllocs(t *testing.T) {
	cfg := testChurnConfig()
	cc := newChurnCampaign(cfg)
	for q := 0; q < 20; q++ {
		cc.quantum(q)
	}
	arrival := cc.newView(-1)
	probe := &cc.views[cc.oldest()]
	for _, view := range []*kernel.View{&arrival, probe} {
		cc.topPartners(view)
		if a := testing.AllocsPerRun(100, func() { cc.topPartners(view) }); a != 0 {
			t.Fatalf("topPartners allocates %.1f per call", a)
		}
	}
}

// checkSameGraph fails t unless got and want have the same id space,
// tombstones, drift counters and CSR rows, weights compared bit for bit.
func checkSameGraph(t *testing.T, got, want *graph.Sparse, when string) {
	t.Helper()
	if got.Len() != want.Len() || got.Alive() != want.Alive() || got.Edges() != want.Edges() || got.Drift() != want.Drift() {
		t.Fatalf("%s: %d ids, %d alive, %d edges, drift %+v; fresh %d, %d, %d, %+v", when,
			got.Len(), got.Alive(), got.Edges(), got.Drift(), want.Len(), want.Alive(), want.Edges(), want.Drift())
	}
	for i := 0; i < got.Len(); i++ {
		if got.Removed(i) != want.Removed(i) {
			t.Fatalf("%s: id %d removed %v, fresh %v", when, i, got.Removed(i), want.Removed(i))
		}
		gc, gw := got.Row(i)
		wc, ww := want.Row(i)
		if !slices.Equal(gc, wc) || !slices.EqualFunc(gw, ww, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("%s: row %d is %v %v, fresh %v %v", when, i, gc, gw, wc, ww)
		}
	}
}

// TestChurnRebuildMatchesFresh: after churn has left dead slots, tail rows
// and compactions in the campaign's scratch, a rebuild into that scratch
// gives the same CSR rows, weight bits, drift, assignment and cut bits as
// alloc.SparseInterferenceGraph plus Sparse.NewPartition on fresh scratch,
// which is what rebuild ran before it reused storage. The P=1024 campaign
// fans the row scan out over the cores where there are several.
func TestChurnRebuildMatchesFresh(t *testing.T) {
	big := testChurnConfig()
	big.P0, big.Cores, big.MeanLife, big.RefreshFrac = 1024, 64, 64, 0.01
	for _, cfg := range []ChurnConfig{testChurnConfig(), testChurnTraceConfig(), big} {
		cc := newChurnCampaign(cfg)
		dead := 0
		for q := 0; q < 30; q++ {
			cc.quantum(q)
		}
		for _, born := range cc.born {
			if born < 0 {
				dead++
			}
		}
		if dead == 0 || len(cc.views) <= cfg.P0 {
			t.Fatalf("P0=%d: %d ids, %d dead: the campaign left nothing for the rebuild to skip", cfg.P0, len(cc.views), dead)
		}
		for round := 0; round < 2; round++ {
			when := fmt.Sprintf("P0=%d %s rebuild %d", cfg.P0, cfg.Mode, round)
			cc.rebuild()
			fresh := alloc.SparseInterferenceGraph(cc.views)
			for i, born := range cc.born {
				if born < 0 {
					fresh.RemoveNode(i)
				}
			}
			pt := fresh.NewPartition(cfg.Cores)
			checkSameGraph(t, cc.g, fresh, when)
			if !slices.Equal(cc.pt.Assign(), pt.Assign()) || cc.pt.K() != pt.K() || cc.pt.Alive() != pt.Alive() ||
				math.Float64bits(cc.pt.Cut()) != math.Float64bits(pt.Cut()) {
				t.Fatalf("%s: assignment %v cut %v, fresh %v cut %v", when, cc.pt.Assign(), cc.pt.Cut(), pt.Assign(), pt.Cut())
			}
			for q := 30; q < 40; q++ { // churn the rebuilt state before the next round
				cc.quantum(q)
			}
		}
	}
}

// TestChurnRebuildZeroAllocs: a rebuild into a warm campaign scratch — row
// scan, graph, dead-slot removal, partition and clock reset — allocates
// nothing, at P=96 and at P=1024. AllocsPerRun measures at GOMAXPROCS 1,
// so the measured scans run inline at either size.
func TestChurnRebuildZeroAllocs(t *testing.T) {
	big := testChurnConfig()
	big.P0, big.Cores = 1024, 64
	for _, cfg := range []ChurnConfig{testChurnConfig(), big} {
		cc := newChurnCampaign(cfg)
		for q := 0; q < 10; q++ {
			cc.quantum(q)
		}
		cc.rebuild()
		if a := testing.AllocsPerRun(10, cc.rebuild); a != 0 {
			t.Fatalf("P0=%d: a warm rebuild allocates %.1f objects", cfg.P0, a)
		}
	}
}

// TestChurnQuantumZeroAllocs: once the campaign's storage covers its
// population, whole quanta allocate nothing — arrivals, departures,
// refreshes, probes, compactions and drift rebuilds alike. The trace
// schedule holds the population at P0 (two arrivals and two departures a
// quantum), so departed ids are reused and the id space stops growing.
// AllocsPerRun runs the 100-quantum window once untimed and once measured,
// so the figure is the window's exact allocation count.
func TestChurnQuantumZeroAllocs(t *testing.T) {
	const warm, window = 300, 100
	cfg := testChurnConfig()
	cfg.Mode, cfg.MissLimit, cfg.Quanta = "trace", 24, warm+2*window
	for q := 0; q < cfg.Quanta; q++ {
		cfg.Schedule = append(cfg.Schedule, ChurnEvent{Quantum: q, Arrive: true}, ChurnEvent{Quantum: q},
			ChurnEvent{Quantum: q, Arrive: true}, ChurnEvent{Quantum: q})
	}
	cc := newChurnCampaign(cfg)
	q := 0
	for ; q < warm; q++ {
		cc.quantum(q)
	}
	before := cc.rep
	allocs := testing.AllocsPerRun(1, func() {
		for end := q + window; q < end; q++ {
			cc.quantum(q)
		}
	})
	if allocs != 0 {
		t.Fatalf("%d steady quanta allocate %.0f objects", window, allocs)
	}
	if cc.rep.Rebuilds == before.Rebuilds || cc.rep.Compacts == before.Compacts || cc.rep.Refreshes == before.Refreshes {
		t.Fatalf("the measured quanta exercise too little: %+v before, %+v after", before, cc.rep)
	}
}

// BenchmarkChurnArrivalP1024 times one whole thread arrival — scoring
// against the live population, partner selection, graph splice and repair —
// at a steady P ≈ 1024 on 64 cores, the population of perfbench's
// churn-p1024. Arrivals come 16 at a time, as there, each batch after 16
// random live threads depart and storage drift is compacted (untimed), so
// the arrivals reuse the departed ids. BenchmarkChurnEventP1024 in
// internal/graph times the graph event alone.
func BenchmarkChurnArrivalP1024(b *testing.B) {
	const batch = 16
	cc := newChurnCampaign(ChurnConfig{Mode: "trace", Seed: 24301, P0: 1024, Cores: 64, FragLimit: 0.6})
	departures := func(q, n int) {
		for ; n > 0; n-- {
			v := cc.rng.Intn(len(cc.born))
			for cc.born[v] < 0 {
				v = cc.rng.Intn(len(cc.born))
			}
			cc.depart(q, v)
		}
		cc.fallback(q)
	}
	for q := 0; q < 128; q++ { // reach steady storage before timing
		departures(q, batch)
		for k := 0; k < batch; k++ {
			cc.arrive(q)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		n := min(batch, b.N-i)
		b.StopTimer()
		departures(i, n)
		b.StartTimer()
		for ; n > 0; n-- {
			cc.arrive(i)
			i++
		}
	}
}
