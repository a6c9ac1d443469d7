package alloc

import (
	"math"
	"runtime"
	"sync"

	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
)

// sparseTopM is how many heaviest neighbors the interference graph keeps
// per thread. Selecting each thread's top m from its row of pair terms
// keeps the graph at O(n·m) memory instead of O(n²), which is what lets
// the policies schedule thousands of threads. Up to sparseTopM+1 = 17 threads
// every edge survives, so every configuration the experiments sweep
// (≤ 16 threads) partitions the complete interference graph, and exactly:
// the partitioner enumerates node sets of up to 20 nodes.
const sparseTopM = 16

// directedTerm is the §3.3.2/§3.3.3 directed interference of thread vi
// toward a thread on core: the reciprocal symbiosis, or with weighted the
// occupancy-weighted footprint overlap (§3.3.3 as implemented by
// WeightedInterferenceGraph). Zero when vi has no signature or the core is
// outside its per-core vectors.
func directedTerm(vi *kernel.View, core int, weighted bool) float64 {
	if !vi.HasSig || core < 0 || core >= len(vi.Symbiosis) {
		return 0
	}
	if weighted {
		if core < len(vi.Overlap) {
			return float64(vi.Overlap[core])
		}
		return 0
	}
	return interference(int(vi.Symbiosis[core]))
}

// PairWeight returns the §3.3.3 weighted interference between two threads —
// the edge weight SparseInterferenceGraph would assign the pair. Exported
// for the churn workflow: when a thread arrives mid-run, the driver scores
// it against candidate partners with PairWeight to pick the top-m neighbor
// set for graph.Partitioner.InsertAndRepair, and the monitor's aging
// refresh recomputes the same term as its fresh reading — all without
// rebuilding the graph.
func PairWeight(vi, vj *kernel.View) float64 {
	return directedTerm(vi, vj.LastCore, true) + directedTerm(vj, vi.LastCore, true)
}

// buildSparseGraph builds the undirected interference graph of §3.3.2/Fig 7
// into g: the directed edge P→Q carries P's interference with Q's core (a
// process is assumed to interfere equally with every process of another
// core), and the two directions are summed, w(i,j) = d(i→core(j)) +
// d(j→core(i)). Each node keeps its sparseTopM heaviest neighbors (ties to
// the smaller id), and an edge survives when either endpoint kept it — the
// union graph.BuildKeptInto emits, which keeps the graph symmetric.
//
// The selection is a row scan over r's buffers (see rowScan): every row
// picks its own top m from the n-1 candidates it scores, with no per-pair
// heap offers, and the independent rows run on up to workers goroutines.
// The graph is the one graph.Builder would build from every pair, bit for
// bit.
//
// override, when non-nil, replaces the interference weight for a pair: it
// is called as override(i, j) with i < j, and returning (w, true) uses w
// (zero drops the edge), (_, false) keeps the computed weight. TwoPhase uses
// it to pin same-group threads of a process together and cut apart
// different-group ones. It must be safe for concurrent calls.
func buildSparseGraph(r *rowScan, g *graph.Sparse, views []kernel.View, weighted bool, override func(i, j int) (float64, bool), workers int) {
	n := len(views)
	r.views, r.weighted, r.override = views, weighted, override
	defer func() { r.views, r.override = nil, nil }()
	k := 0
	for i := range views {
		if views[i].HasSig {
			k = max(k, len(views[i].Symbiosis))
		}
	}
	r.k = k

	// Group the rows by core with a counting sort (the out-of-range cores
	// share bucket k, whose column is all zeros).
	r.core = grow(r.core, n)
	r.start = grow(r.start, k+2)
	clear(r.start)
	for j := range views {
		c := views[j].LastCore
		if c < 0 || c >= k {
			c = k
		}
		r.core[j] = int32(c)
		r.start[c+1]++
	}
	for c := 0; c <= k; c++ {
		r.start[c+1] += r.start[c]
	}
	r.order = grow(r.order, n)
	for j, c := range r.core[:n] {
		r.order[r.start[c]] = int32(j)
		r.start[c]++
	}

	r.edges = grow(r.edges, n*sparseTopM)
	if cap(r.kept) < n {
		r.kept = make([][]graph.Edge, n)
	}
	r.kept = r.kept[:n]

	workers = max(1, min(workers, n))
	for len(r.workers) < workers {
		w := len(r.workers)
		r.workers = append(r.workers, scanWorker{})
		r.workers[w].run = func() {
			r.scan(&r.workers[w])
			r.wg.Done()
		}
	}
	for w := 0; w < workers; w++ {
		r.workers[w].lo, r.workers[w].hi = w*n/workers, (w+1)*n/workers
	}
	r.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go r.workers[w].run()
	}
	r.scan(&r.workers[0])
	r.wg.Wait()
	graph.BuildKeptInto(g, r.kept)
}

// scanWorkers is how many goroutines a build over n views fans out to: one
// per 256 rows, at most GOMAXPROCS. Below 512 rows the scan runs inline, so
// the monitor's small decisions spawn nothing.
func scanWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/256))
}

// rowScan is the reusable state of buildSparseGraph. Rows are visited
// grouped by their thread's last core c, because every candidate j of such
// a row scores d(i→core(j)) + d(j→c): the second term is one dense column
// per core, filled once per group, and the first one entry of the row's own
// per-core terms. Each worker holds one column and one row of terms, O(n+N)
// scratch, never an n×N table. The zero value is ready to use; it must not
// be copied once used.
type rowScan struct {
	// Set for the duration of one build.
	views    []kernel.View
	weighted bool
	override func(i, j int) (float64, bool)
	k        int // per-core vector bound: d(v→c) is zero for every c ≥ k

	core    []int32        // core[j]: views[j].LastCore, or k when outside [0, k)
	order   []int32        // row ids grouped by core, ascending within a group
	start   []int32        // counting-sort cursors over the k+1 cores
	edges   []graph.Edge   // row i keeps edges[i*sparseTopM:][:len(kept[i])]
	kept    [][]graph.Edge // the rows BuildKeptInto merges, sorted by id
	workers []scanWorker
	wg      sync.WaitGroup
}

// scanWorker scans one contiguous share of rowScan.order.
type scanWorker struct {
	lo, hi int
	col    []float64 // col[j] = d(j→c) for the core c of the current group
	term   []float64 // term[c] = d(i→c) of the current row i, term[k] = 0
	top    graph.TopM
	run    func() // scans the share and signals wg; made once, so a fan-out allocates nothing
}

// scan selects the kept edges of the rows order[lo:hi].
func (r *rowScan) scan(w *scanWorker) {
	n, k, views := len(r.views), r.k, r.views
	w.col, w.term = grow(w.col, n), grow(w.term, k+1)
	col, term, core := w.col[:n], w.term[:k+1], r.core[:n]
	group := int32(-1)
	for _, i := range r.order[w.lo:w.hi] {
		if c := core[i]; c != group {
			group = c
			for j := range views {
				col[j] = directedTerm(&views[j], int(c), r.weighted)
			}
		}
		vi := &views[i]
		for c := range term {
			term[c] = directedTerm(vi, c, r.weighted)
		}
		// Candidates arrive in ascending id order, so one that does not
		// beat the floor ranks below every kept edge (see graph.TopM).
		floor := math.Inf(-1)
		w.top.Reset(sparseTopM, floor)
		if r.override == nil {
			for j := range core {
				if s := term[core[j]] + col[j]; s > floor && s != 0 && j != int(i) {
					floor = w.top.Admit(int32(j), s)
				}
			}
		} else {
			for j := range core {
				if j == int(i) {
					continue
				}
				s := term[core[j]] + col[j]
				if ow, ok := r.override(min(int(i), j), max(int(i), j)); ok {
					s = ow
				}
				if s > floor && s != 0 {
					floor = w.top.Admit(int32(j), s)
				}
			}
		}
		// Keep the row sorted by id, as BuildKeptInto merges it.
		ids, ws := w.top.Kept()
		row := r.edges[int(i)*sparseTopM:][:len(ids)]
		for x := range row {
			row[x] = graph.Edge{To: ids[x], W: ws[x]}
		}
		for x := 1; x < len(row); x++ {
			for y := x; y > 0 && row[y].To < row[y-1].To; y-- {
				row[y], row[y-1] = row[y-1], row[y]
			}
		}
		r.kept[i] = row
	}
}

// grow returns s resized to n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SparseInterferenceGraph builds the §3.3.3 weighted interference graph the
// policies partition, on fresh scratch into a fresh graph. Exported so
// callers can drive the incremental workflow directly: partition once, then
// graph.Partitioner.Repair after small signature deltas instead of
// re-partitioning from scratch (and so the benchmark harness can measure
// each stage in isolation). Scratch.SparseInterferenceGraph is the form
// that reuses its storage.
func SparseInterferenceGraph(views []kernel.View) *graph.Sparse {
	g := new(graph.Sparse)
	buildSparseGraph(new(rowScan), g, views, true, nil, scanWorkers(len(views)))
	return g
}

// SparseInterferenceGraph builds the same graph as the package function into
// the scratch's own graph, reusing its storage and the row scan's, and
// returns it: a caller that rebuilds over a population of stable size
// allocates nothing once warm. The graph belongs to s, so the next build or
// decision on s overwrites it.
func (s *Scratch) SparseInterferenceGraph(views []kernel.View) *graph.Sparse {
	buildSparseGraph(&s.scan, &s.g, views, true, nil, scanWorkers(len(views)))
	return &s.g
}

// Partitioner returns the scratch's partitioner arena, the one its
// decisions run on, for partitioning and repairing the graph s built.
func (s *Scratch) Partitioner() *graph.Partitioner { return &s.part }
