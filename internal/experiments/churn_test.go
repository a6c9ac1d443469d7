package experiments

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
	"time"

	"symbiosched/internal/alloc"
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
// selection sort's (nbrs, wts) sequence — the order reaches
// Partition.UpdateWeight through probe — over seeded populations with dead
// slots (some still carrying a signature) and heavy weight ties, TopM from 1
// to 24, including fewer live partners than TopM and all-zero weights.
func TestChurnTopPartnersMatchesSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	short, empty := 0, 0
	for trial := 0; trial < 2000; trial++ {
		cores := 1 + rng.Intn(6)
		zero := trial%16 == 0
		cc := &churnCampaign{cfg: ChurnConfig{TopM: 1 + trial%24, Cores: cores}}
		p := rng.Intn(80)
		cc.views = make([]kernel.View, p)
		cc.born = make([]int, p)
		for u := range cc.views {
			cc.views[u] = tieView(rng, u, cores, zero)
			if rng.Intn(4) == 0 {
				cc.born[u] = -1
				if rng.Intn(2) == 0 {
					cc.views[u] = kernel.View{ThreadID: u}
				}
			}
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
	if short < 100 || empty < 50 {
		t.Fatalf("too few degenerate cases: %d short of TopM, %d empty", short, empty)
	}
}
