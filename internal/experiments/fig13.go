package experiments

import (
	"strings"

	"symbiosched/internal/alloc"
	"symbiosched/internal/metrics"
)

// RepresentativeMixes returns the benchmark mixes the paper uses in its
// Fig 13/14 comparisons (named in §5.3) plus two more covering the
// remaining classes.
func RepresentativeMixes() [][]string {
	return [][]string{
		{"gobmk", "hmmer", "libquantum", "povray"},
		{"perlbench", "gobmk", "libquantum", "omnetpp"},
		{"mcf", "hmmer", "libquantum", "omnetpp"},
		{"mcf", "libquantum", "povray", "gobmk"},
		{"soplex", "milc", "gcc", "sjeng"},
	}
}

// MixComparison is one representative mix's result: the improvement each
// variant (algorithm or hash function) achieves, measured as the mean
// improvement over the worst mapping across the mix's four benchmarks.
type MixComparison struct {
	Mix     []string
	Results map[string]float64 // variant name → mean improvement
}

// Figure13Result compares the three allocation algorithms (§5.2).
type Figure13Result struct {
	Variants []string
	Mixes    []MixComparison
}

// Table renders variants × mixes.
func (r Figure13Result) Table() metrics.Table {
	t := metrics.Table{
		Title:   "Figure 13: resource allocation algorithms (mean improvement over worst mapping)",
		Headers: append([]string{"mix"}, r.Variants...),
	}
	for _, m := range r.Mixes {
		row := []interface{}{strings.Join(m.Mix, "+")}
		for _, v := range r.Variants {
			row = append(row, metrics.Pct(m.Results[v]))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure13 runs the representative mixes under all three §3.3 algorithms
// (plus the miss-rate baseline for contrast). Expected shape: the weighted
// interference graph is as good or better everywhere; plain weight sorting
// sometimes matches it (the paper's observation that footprint alone is a
// strong signal).
func Figure13(c Config) Figure13Result {
	policies := []alloc.Policy{
		alloc.WeightSort{},
		alloc.InterferenceGraph{},
		alloc.WeightedInterferenceGraph{},
		alloc.MissRateSort{},
	}
	res := Figure13Result{}
	for _, p := range policies {
		res.Variants = append(res.Variants, p.Name())
	}

	mixes := RepresentativeMixes()
	// Every (mix, policy) cell is one job of a single flat task graph: all
	// phase-1 runs and all candidate runs across all cells share one
	// work-stealing pool instead of nesting a candidate pool per cell.
	jobs := make([]mixJob, 0, len(mixes)*len(policies))
	for _, names := range mixes {
		mix := profilesByName(names)
		cands := c.candidatesFor(mix)
		for _, p := range policies {
			jobs = append(jobs, mixJob{cfg: c, profiles: mix, policy: p, candidates: cands})
		}
	}
	outcomes := runMixJobs(c, jobs)
	for mi, names := range mixes {
		mc := MixComparison{Mix: names, Results: map[string]float64{}}
		for pi, p := range policies {
			mc.Results[p.Name()] = meanImprovement(outcomes[mi*len(policies)+pi])
		}
		res.Mixes = append(res.Mixes, mc)
	}
	return res
}

// meanImprovement averages the chosen-over-worst improvement across the
// mix's benchmarks.
func meanImprovement(o MixOutcome) float64 {
	imps := make([]float64, len(o.Names))
	for i := range o.Names {
		imps[i] = o.ImprovementFor(i)
	}
	return metrics.Mean(imps)
}
