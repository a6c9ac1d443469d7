package experiments

import (
	"sort"

	"symbiosched/internal/alloc"
	"symbiosched/internal/metrics"
	"symbiosched/internal/workload"
)

// PairDegradation is one bar of Figure 3: a benchmark's worst-case relative
// user-time degradation over all pairings.
type PairDegradation struct {
	Name        string
	WorstWith   string  // co-runner producing the worst case
	Degradation float64 // (paired − standalone)/standalone
}

// Figure3Result holds one of the two §2.3 pairwise studies.
type Figure3Result struct {
	Machine string
	Rows    []PairDegradation
	// Names and Matrix carry the full pairwise data underlying the
	// worst-case bars: Matrix[i][j] is benchmark i's relative degradation
	// when paired with benchmark j (NaN-free; the diagonal is zero).
	Names  []string
	Matrix [][]float64
}

// MatrixTable renders the full pairwise degradation matrix (the data behind
// the Figure 3 bars; `symbiosched pairs`).
func (r Figure3Result) MatrixTable() metrics.Table {
	t := metrics.Table{
		Title:   "Pairwise degradation matrix (" + r.Machine + "): row benchmark's slowdown when paired with column benchmark",
		Headers: append([]string{"benchmark"}, r.Names...),
	}
	for i, name := range r.Names {
		cells := []interface{}{name}
		for j := range r.Names {
			if i == j {
				cells = append(cells, "—")
			} else {
				cells = append(cells, metrics.Pct(r.Matrix[i][j]))
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// Table renders the worst-case degradations.
func (r Figure3Result) Table() metrics.Table {
	t := metrics.Table{
		Title:   "Figure 3 (" + r.Machine + "): worst-case user-time degradation when paired",
		Headers: []string{"benchmark", "worst co-runner", "degradation"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.WorstWith, metrics.Pct(row.Degradation))
	}
	return t
}

// MaxDegradation returns the largest degradation in the study.
func (r Figure3Result) MaxDegradation() float64 {
	var m float64
	for _, row := range r.Rows {
		if row.Degradation > m {
			m = row.Degradation
		}
	}
	return m
}

// Figure3a reproduces §2.3.1: all pairs of the pool confined to a single
// processor of the P4 Xeon SMP (private L2s). The pair time-shares one core;
// the only interference is cache warm-up across context switches, so the
// worst degradation stays small (paper: <10%).
func Figure3a(c Config) Figure3Result {
	return c.pairwise("P4 Xeon SMP, pair on one core", xeon, alloc.Mapping{0, 0})
}

// Figure3b reproduces §2.3.2: all pairs on the Core 2 Duo's two cores
// sharing the 4MB L2 — the destructive co-run case (paper: up to 67%,
// worst pair mcf+libquantum).
func Figure3b(c Config) Figure3Result {
	return c.pairwise("Core 2 Duo, shared L2", coreDuo, alloc.Mapping{0, 1})
}

// pairwise runs every benchmark of the pool alone on core 0 of machine m and
// every unordered pair under pairAff until both complete once (with
// restarts), as one job set on the pool, and folds the user times into
// relative degradations.
func (c Config) pairwise(name string, m machine, pairAff alloc.Mapping) Figure3Result {
	pool := workload.SPEC2006()
	combos := Combinations(len(pool), 2)
	jobs := soloJobs(c, m, pool)
	for _, combo := range combos {
		jobs = append(jobs, mixJob{cfg: c, machine: m,
			profiles:   []workload.Profile{pool[combo[0]], pool[combo[1]]},
			candidates: []alloc.Mapping{pairAff}})
	}
	outs := runMixJobs(c, jobs)
	standalone := func(i int) float64 { return float64(outs[i].Candidates[0].UserCycles[0]) }

	res := Figure3Result{Machine: name, Matrix: make([][]float64, len(pool))}
	for i, p := range pool {
		res.Names = append(res.Names, p.Name)
		res.Matrix[i] = make([]float64, len(pool))
	}
	for k, combo := range combos {
		i, j := combo[0], combo[1]
		u := outs[len(pool)+k].Candidates[0].UserCycles
		res.Matrix[i][j] = float64(u[0])/standalone(i) - 1
		res.Matrix[j][i] = float64(u[1])/standalone(j) - 1
	}
	for i, p := range pool {
		worst := PairDegradation{Name: p.Name}
		for j, d := range res.Matrix[i] {
			if j != i && d > worst.Degradation {
				worst.Degradation = d
				worst.WorstWith = pool[j].Name
			}
		}
		res.Rows = append(res.Rows, worst)
	}
	sort.Slice(res.Rows, func(a, b int) bool { return res.Rows[a].Name < res.Rows[b].Name })
	return res
}
