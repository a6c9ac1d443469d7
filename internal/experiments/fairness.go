package experiments

import (
	"math"

	"symbiosched/internal/metrics"
)

// FairnessResult quantifies the fairness dimension the paper lists among its
// goals ("provide fairness across workloads", §1, keywords): for each
// candidate mapping of the canonical mix, the per-process slowdown relative
// to a standalone run and Jain's fairness index over the reciprocal
// slowdowns. A contention-oblivious mapping lets one process absorb all the
// damage (low fairness); the symbiotic mapping spreads residual contention.
type FairnessResult struct {
	Names []string
	Rows  []FairnessRow
}

// FairnessRow is one mapping's outcome.
type FairnessRow struct {
	Mapping   []int
	Label     string
	Slowdowns []float64 // per-process paired/standalone user time
	Jain      float64   // Jain's index over 1/slowdown, in (1/n, 1]
	Chosen    bool
}

// Table renders the study.
func (r FairnessResult) Table() metrics.Table {
	t := metrics.Table{
		Title:   "Fairness study: per-process slowdown vs standalone and Jain index per mapping (* = chosen)",
		Headers: append(append([]string{"mapping"}, r.Names...), "Jain"),
	}
	for _, row := range r.Rows {
		label := row.Label
		if row.Chosen {
			label = "*" + label
		}
		cells := []interface{}{label}
		for _, s := range row.Slowdowns {
			cells = append(cells, metrics.Pct(s-1))
		}
		cells = append(cells, row.Jain)
		t.AddRow(cells...)
	}
	return t
}

// JainIndex returns (Σx)² / (n·Σx²) — 1.0 when all allocations are equal.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Fairness runs the canonical mix's two-phase flow, computing each candidate
// mapping's slowdowns against standalone runs and its fairness index, and
// marks the mapping the weighted interference graph chooses. The mix and the
// four standalone runs are one job set on the pool.
func Fairness(c Config) FairnessResult {
	names := CanonicalMix()
	mix := profilesByName(names)
	jobs := append([]mixJob{{cfg: c, profiles: mix, policy: mustPolicy(), candidates: c.candidatesFor(mix)}},
		soloJobs(c, coreDuo, mix)...)
	outs := runMixJobs(c, jobs)

	res := FairnessResult{Names: names}
	for i, cand := range outs[0].Candidates {
		row := FairnessRow{
			Mapping: cand.Mapping,
			Label:   MappingLabel(cand.Mapping),
			Chosen:  i == outs[0].ChosenIdx,
		}
		var speeds []float64
		for p, u := range cand.UserCycles {
			standalone := outs[1+p].Candidates[0].UserCycles[0]
			slow := float64(u) / math.Max(1, float64(standalone))
			row.Slowdowns = append(row.Slowdowns, slow)
			speeds = append(speeds, 1/slow)
		}
		row.Jain = JainIndex(speeds)
		res.Rows = append(res.Rows, row)
	}
	return res
}
