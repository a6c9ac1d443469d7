package experiments

import (
	"symbiosched/internal/alloc"
	"symbiosched/internal/bloom"
	"symbiosched/internal/cache"
	"symbiosched/internal/metrics"
)

// CanonicalMix is the mix used by the ablation studies: one cache destroyer,
// one streaming aggressor, and two benign programs.
func CanonicalMix() []string { return []string{"mcf", "libquantum", "povray", "gobmk"} }

// AblationResult is the outcome of one design-knob setting.
type AblationResult struct {
	Label string
	// MeanImprovement is the mix-mean improvement of the chosen schedule
	// over the worst mapping.
	MeanImprovement float64
	// McfImprovement isolates the most schedule-sensitive benchmark.
	McfImprovement float64
}

// AblateReplacement runs the canonical mix's two-phase flow with the shared
// L2 under a different replacement policy. The paper's pitch against the
// cache-partitioning related work (§6) is that the signature scheme leaves
// normal caching untouched; this ablation verifies the scheduling gains
// survive FIFO and random victim selection.
func AblateReplacement(c Config, policy cache.Replacement) AblationResult {
	c.L2Replace = policy
	return AblateSignature(c, "replacement="+policy.String(), nil)
}

// AblateSignature runs the canonical mix's two-phase flow under a mutated
// signature-unit configuration and reports the resulting schedule quality.
// It powers the DESIGN.md ablation benches: sampling-rate, counter-width and
// filter-hash sweeps beyond the paper's Fig 14.
func AblateSignature(c Config, label string, mutate func(*bloom.Config)) AblationResult {
	ec := c.EngineConfig()
	sig := ec.Signature
	if sig.Cores == 0 {
		sig = bloom.DefaultConfig(bloom.Geometry{Sets: ec.Hierarchy.L2.Sets(), Ways: ec.Hierarchy.L2.Ways}, ec.Hierarchy.Cores)
		sig.CounterBits = 8
	}
	if mutate != nil {
		mutate(&sig)
	}
	c.Signature = &sig

	mix := profilesByName(CanonicalMix())
	out := c.RunMix(mix, alloc.WeightedInterferenceGraph{}, c.candidatesFor(mix), nil)
	var imps []float64
	res := AblationResult{Label: label}
	for i, name := range out.Names {
		imp := out.ImprovementFor(i)
		imps = append(imps, imp)
		if name == "mcf" {
			res.McfImprovement = imp
		}
	}
	res.MeanImprovement = metrics.Mean(imps)
	return res
}
