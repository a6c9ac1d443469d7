package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
)

// refEdge is one neighbor of the reference graph's row.
type refEdge struct {
	to int
	w  float64
}

// refTerm is §3.3.2/§3.3.3's directed term, written out again from the
// definitions: the occupancy-weighted footprint overlap, or the reciprocal
// symbiosis (maximal, 1, at symbiosis ≤ 0), of v toward a thread on core;
// zero without a signature or outside v's per-core vectors.
func refTerm(v *kernel.View, core int, weighted bool) float64 {
	if !v.HasSig || core < 0 || core >= len(v.Symbiosis) {
		return 0
	}
	if weighted {
		if core >= len(v.Overlap) {
			return 0
		}
		return float64(v.Overlap[core])
	}
	if s := v.Symbiosis[core]; s > 0 {
		return 1 / float64(s)
	}
	return 1
}

// referenceGraph is the build's brute-force oracle, sharing no code with
// the row scan or graph.Builder: every node sorts all its nonzero partners
// by weight descending then id ascending and keeps sparseTopM; an edge is
// in the graph when either endpoint kept it. Rows come out sorted by id.
func referenceGraph(views []kernel.View, weighted bool, override func(i, j int) (float64, bool)) [][]refEdge {
	n := len(views)
	weight := func(i, j int) float64 {
		a, b := min(i, j), max(i, j)
		if override != nil {
			if w, ok := override(a, b); ok {
				return w
			}
		}
		return refTerm(&views[a], views[b].LastCore, weighted) + refTerm(&views[b], views[a].LastCore, weighted)
	}
	in := make([]map[int]float64, n)
	for i := range in {
		in[i] = map[int]float64{}
	}
	for i := 0; i < n; i++ {
		var cand []refEdge
		for j := 0; j < n; j++ {
			if w := weight(i, j); j != i && w != 0 {
				cand = append(cand, refEdge{j, w})
			}
		}
		slices.SortFunc(cand, func(x, y refEdge) int {
			switch {
			case x.w > y.w:
				return -1
			case x.w < y.w:
				return 1
			}
			return x.to - y.to
		})
		for _, e := range cand[:min(len(cand), sparseTopM)] {
			in[i][e.to] = e.w
			in[e.to][i] = e.w
		}
	}
	rows := make([][]refEdge, n)
	for i, m := range in {
		for j, w := range m {
			rows[i] = append(rows[i], refEdge{j, w})
		}
		slices.SortFunc(rows[i], func(x, y refEdge) int { return x.to - y.to })
	}
	return rows
}

// builderGraph is the pairwise build the row scan replaced: every pair
// offered once to graph.Builder's top-m heaps.
func builderGraph(views []kernel.View, weighted bool, override func(i, j int) (float64, bool)) *graph.Sparse {
	b := graph.NewBuilder(len(views), sparseTopM)
	for i := range views {
		for j := i + 1; j < len(views); j++ {
			if override != nil {
				if w, ok := override(i, j); ok {
					b.Add(i, j, w)
					continue
				}
			}
			b.Add(i, j, directedTerm(&views[i], views[j].LastCore, weighted)+directedTerm(&views[j], views[i].LastCore, weighted))
		}
	}
	return b.Build()
}

// sameRows reports the first difference between g and the reference rows:
// neighbor ids and weight bits, row by row.
func sameRows(g *graph.Sparse, ref [][]refEdge) error {
	if g.Len() != len(ref) {
		return fmt.Errorf("graph has %d nodes, reference %d", g.Len(), len(ref))
	}
	for i, row := range ref {
		cols, wts := g.Row(i)
		if len(cols) != len(row) {
			return fmt.Errorf("row %d: %d neighbors %v, reference %d %v", i, len(cols), cols, len(row), row)
		}
		for x, e := range row {
			if int(cols[x]) != e.to || math.Float64bits(wts[x]) != math.Float64bits(e.w) {
				return fmt.Errorf("row %d slot %d: (%d, %v), reference (%d, %v)", i, x, cols[x], wts[x], e.to, e.w)
			}
		}
	}
	return nil
}

// sameGraph reports the first difference between two graphs' rows.
func sameGraph(a, b *graph.Sparse) error {
	ref := make([][]refEdge, b.Len())
	for i := range ref {
		cols, wts := b.Row(i)
		for x := range cols {
			ref[i] = append(ref[i], refEdge{int(cols[x]), wts[x]})
		}
	}
	return sameRows(a, ref)
}

// buildMode is one graph policy's build: IG (reciprocal symbiosis), WIG
// (weighted overlap) or TwoPhase (WIG with the pinned phase-2 edges).
type buildMode int

const (
	modeIG buildMode = iota
	modeWIG
	modeTwoPhase
)

func (m buildMode) String() string { return [...]string{"IG", "WIG", "TwoPhase"}[m] }

// args returns the mode's buildSparseGraph arguments for views on cores.
func (m buildMode) args(views []kernel.View, cores int) (bool, func(i, j int) (float64, bool)) {
	switch m {
	case modeIG:
		return false, nil
	case modeWIG:
		return true, nil
	}
	return true, twoPhaseOverride(views, cores)
}

// scanGraph is the row-scan build on workers goroutines.
func scanGraph(views []kernel.View, weighted bool, override func(i, j int) (float64, bool), workers int) *graph.Sparse {
	g := new(graph.Sparse)
	buildSparseGraph(new(rowScan), g, views, weighted, override, workers)
	return g
}

// buildViews draws n views on cores cores. The draw mixes multi-threaded
// processes, views without a signature, LastCore -1 and past the vectors,
// vectors shorter than the core count, and (when ties) metrics from a few
// small integers, so equal weights are common and the tie rule decides.
func buildViews(rng *rand.Rand, n, cores int, ties bool) []kernel.View {
	views := make([]kernel.View, 0, n)
	for proc := 0; len(views) < n; proc++ {
		threads := 1
		if rng.Intn(4) == 0 {
			threads = min(2+rng.Intn(5), n-len(views))
		}
		for t := 0; t < threads; t++ {
			i := len(views)
			v := kernel.View{ThreadID: i, ProcID: proc, Threads: threads,
				LastCore: rng.Intn(cores), Occupancy: rng.Intn(100), HasSig: rng.Intn(8) != 0}
			switch rng.Intn(16) {
			case 0:
				v.LastCore = -1
			case 1:
				v.LastCore = cores + rng.Intn(3)
			}
			width := cores
			if rng.Intn(8) == 0 {
				width = rng.Intn(cores + 1)
			}
			v.Symbiosis, v.Overlap = make([]int32, width), make([]int32, width)
			for c := range width {
				if ties {
					v.Symbiosis[c], v.Overlap[c] = int32(rng.Intn(4)), int32(rng.Intn(3))
				} else {
					v.Symbiosis[c], v.Overlap[c] = int32(1+rng.Intn(1000)), int32(rng.Intn(300))
				}
			}
			views = append(views, v)
		}
	}
	return views
}

// TestColumnarBuildMatchesOracle: the row-scan build equals the brute-force
// reference and the pairwise Builder build, neighbor ids and weight bits,
// on seeded view sets of n = 0..40, 256, 1024 and 2100 threads, 1..64
// cores, every policy's build, and both metric ranges.
func TestColumnarBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	type shape struct{ n, cores int }
	var shapes []shape
	for n := 0; n <= 40; n++ {
		shapes = append(shapes, shape{n, 1 + rng.Intn(min(64, n+4))})
	}
	shapes = append(shapes, shape{256, 16}, shape{256, 64}, shape{1024, 64}, shape{2100, 33})
	for _, sh := range shapes {
		for _, mode := range []buildMode{modeIG, modeWIG, modeTwoPhase} {
			if sh.n > 1024 && mode != modeWIG {
				continue // the largest set checks the policy the experiments run
			}
			for _, ties := range []bool{true, false} {
				if sh.n > 40 && ties != (mode != modeIG) {
					continue // one metric range per large set keeps -race quick
				}
				views := buildViews(rng, sh.n, sh.cores, ties)
				weighted, override := mode.args(views, sh.cores)
				got := scanGraph(views, weighted, override, scanWorkers(sh.n))
				name := fmt.Sprintf("n=%d cores=%d %v ties=%v", sh.n, sh.cores, mode, ties)
				if err := sameRows(got, referenceGraph(views, weighted, override)); err != nil {
					t.Fatalf("%s: against the reference: %v", name, err)
				}
				if err := sameGraph(got, builderGraph(views, weighted, override)); err != nil {
					t.Fatalf("%s: against the Builder build: %v", name, err)
				}
			}
		}
	}
}

// TestColumnarBuildWorkerInvariance: the rows fan out over the workers but
// every row's selection is its own, so one to four workers build the same
// graph byte for byte.
func TestColumnarBuildWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range []struct{ n, cores int }{{3, 2}, {40, 5}, {300, 17}, {1024, 64}, {2100, 64}} {
		for _, mode := range []buildMode{modeIG, modeWIG, modeTwoPhase} {
			views := buildViews(rng, sh.n, sh.cores, sh.n%2 == 0)
			weighted, override := mode.args(views, sh.cores)
			want := scanGraph(views, weighted, override, 1)
			for workers := 2; workers <= 4; workers++ {
				if err := sameGraph(scanGraph(views, weighted, override, workers), want); err != nil {
					t.Fatalf("n=%d cores=%d %v: %d workers against 1: %v", sh.n, sh.cores, mode, workers, err)
				}
			}
		}
	}
}

// FuzzColumnarBuild: on views decoded from arbitrary bytes, the row-scan
// build on one to four workers equals the brute-force reference and the
// pairwise Builder build.
func FuzzColumnarBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n, cores, mode, workers := next()%41, 1+next()%64, buildMode(next()%3), 1+next()%4
		views := make([]kernel.View, n)
		for i := range views {
			flags := next()
			v := kernel.View{ThreadID: i, ProcID: next() % (n/2 + 1), Threads: 1,
				LastCore: next()%(cores+3) - 1, Occupancy: next(), HasSig: flags&1 == 0}
			width := cores
			if flags&2 != 0 {
				width = next() % (cores + 1)
			}
			v.Symbiosis, v.Overlap = make([]int32, width), make([]int32, width)
			for c := range width {
				v.Symbiosis[c], v.Overlap[c] = int32(next()%5), int32(next()%4)
			}
			views[i] = v
		}
		weighted, override := mode.args(views, cores)
		got := scanGraph(views, weighted, override, workers)
		if err := sameRows(got, referenceGraph(views, weighted, override)); err != nil {
			t.Fatalf("n=%d cores=%d %v workers=%d: against the reference: %v", n, cores, mode, workers, err)
		}
		if err := sameGraph(got, builderGraph(views, weighted, override)); err != nil {
			t.Fatalf("n=%d cores=%d %v workers=%d: against the Builder build: %v", n, cores, mode, workers, err)
		}
	})
}

// TestScratchDecisionZeroAllocs pins a warm Scratch decision at zero
// allocations at the monitor's four threads (built inline) and at 1024
// threads (built on as many workers as GOMAXPROCS and the size allow).
func TestScratchDecisionZeroAllocs(t *testing.T) {
	for _, sh := range []struct{ n, cores int }{{4, 2}, {1024, 64}} {
		views := clusteredViews(sh.n, sh.cores, sh.cores, 5)
		var s Scratch
		p := WeightedInterferenceGraph{}
		want := append(Mapping(nil), p.AllocateScratch(views, sh.cores, &s)...)
		if allocs := testing.AllocsPerRun(20, func() { p.AllocateScratch(views, sh.cores, &s) }); allocs != 0 {
			t.Errorf("n=%d: warm decision allocates %.1f objects, want 0", sh.n, allocs)
		}
		if got := p.AllocateScratch(views, sh.cores, &s); !got.Equal(want) {
			t.Fatalf("n=%d: reused scratch changed the decision", sh.n)
		}
	}
}
