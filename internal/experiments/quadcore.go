package experiments

import (
	"symbiosched/internal/alloc"
	"symbiosched/internal/cache"
	"symbiosched/internal/metrics"
)

// QuadCoreResult is the §3.3.2 extension experiment: eight processes on a
// four-core machine sharing one L2, allocated by hierarchical MIN-CUT
// ("first divide into two groups using MIN-CUT and then apply MIN-CUT to
// each group"). The candidate space is all 105 balanced 4-way groupings.
type QuadCoreResult struct {
	MixOutcome
}

// Table renders per-benchmark improvements of the chosen 4-way grouping.
func (r QuadCoreResult) Table() metrics.Table {
	t := metrics.Table{
		Title:   "Quad-core extension: hierarchical MIN-CUT, 8 processes on 4 cores (improvement over worst of 105 groupings)",
		Headers: []string{"benchmark", "improvement", "chosen core"},
	}
	for i, n := range r.Names {
		t.AddRow(n, metrics.Pct(r.ImprovementFor(i)), r.Chosen[i])
	}
	return t
}

// QuadCoreMix returns the default eight-benchmark mix: two of each class.
func QuadCoreMix() []string {
	return []string{"mcf", "omnetpp", "libquantum", "hmmer", "povray", "gobmk", "gcc", "bzip2"}
}

// QuadCore runs the full two-phase flow on the four-core machine, over
// every balanced grouping or, with CandidateLimit, a deterministic sample
// of them.
func QuadCore(c Config, names []string) QuadCoreResult {
	if names == nil {
		names = QuadCoreMix()
	}
	mix := profilesByName(names)
	cands := EnumerateMappings(len(mix), cache.QuadCoreConfig().Cores)
	if c.CandidateLimit > 0 && len(cands) > c.CandidateLimit {
		step := len(cands) / c.CandidateLimit
		var sampled []alloc.Mapping
		for i := 0; i < len(cands); i += step {
			sampled = append(sampled, cands[i])
		}
		cands = sampled
	}
	out := runMixJobs(c, []mixJob{{cfg: c, machine: quadCore, profiles: mix,
		policy: alloc.WeightedInterferenceGraph{}, candidates: cands}})
	return QuadCoreResult{out[0]}
}
