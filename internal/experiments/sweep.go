package experiments

import (
	"math"
	"sort"

	"symbiosched/internal/alloc"
	"symbiosched/internal/metrics"
	"symbiosched/internal/virt"
	"symbiosched/internal/workload"
)

// VirtSpec marks a sweep as virtualized (one benchmark per VM under the
// hypervisor cost model), reproducing the §4.2 Xen setup.
type VirtSpec struct {
	Overhead virt.Overhead
}

// DefaultVirt returns the default Xen-era cost model spec.
func DefaultVirt() *VirtSpec { return &VirtSpec{Overhead: virt.DefaultOverhead()} }

// BenchStats accumulates the per-benchmark improvements across all mixes
// containing the benchmark — the Fig 10/11/12 bar pairs. Oracle holds the
// corresponding perfect-hindsight ceilings.
type BenchStats struct {
	Name         string
	Improvements []float64
	Oracle       []float64
}

// Max returns the maximum improvement (the paper's left bar).
func (b BenchStats) Max() float64 { return metrics.Max(b.Improvements) }

// Avg returns the average improvement (the paper's right bar).
func (b BenchStats) Avg() float64 { return metrics.Mean(b.Improvements) }

// OracleCapture returns the fraction of the oracle's (best-possible) mean
// gain the policy captured, in [0,1]-ish; 0 when the oracle itself is 0.
func (b BenchStats) OracleCapture() float64 {
	oracle := metrics.Mean(b.Oracle)
	if oracle <= 0 {
		return 0
	}
	return b.Avg() / oracle
}

// ImprovementReport is the outcome of a full mix sweep.
type ImprovementReport struct {
	Policy     string
	Virtual    bool
	MixSize    int
	Mixes      int
	Benchmarks []BenchStats // sorted by name
}

// Overall returns the average improvement across every (mix, benchmark)
// observation — the paper's headline "22% average" style number. The
// aggregate streams over the per-benchmark slices in place; no flattened
// copy is built (these run inside report loops and benchmark assertions).
func (r ImprovementReport) Overall() float64 {
	var sum float64
	var n int
	for _, b := range r.Benchmarks {
		for _, x := range b.Improvements {
			sum += x
		}
		n += len(b.Improvements)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxOverall returns the largest single improvement observed (0 when there
// are no observations, matching metrics.Max).
func (r ImprovementReport) MaxOverall() float64 {
	m := math.Inf(-1)
	seen := false
	for _, b := range r.Benchmarks {
		for _, x := range b.Improvements {
			if x > m {
				m = x
			}
			seen = true
		}
	}
	if !seen {
		return 0
	}
	return m
}

// OracleOverall returns the mean perfect-hindsight improvement across every
// (mix, benchmark) observation: the ceiling for Overall.
func (r ImprovementReport) OracleOverall() float64 {
	var sum float64
	var n int
	for _, b := range r.Benchmarks {
		for _, x := range b.Oracle {
			sum += x
		}
		n += len(b.Oracle)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Table renders the report in the paper's per-benchmark max/avg format.
func (r ImprovementReport) Table() metrics.Table {
	title := "Maximum and average improvement per benchmark (policy: " + r.Policy + ", native)"
	if r.Virtual {
		title = "Maximum and average improvement per benchmark (policy: " + r.Policy + ", Xen-style VMs)"
	}
	t := metrics.Table{
		Title:   title,
		Headers: []string{"benchmark", "max improvement", "avg improvement", "oracle avg", "mixes"},
	}
	for _, b := range r.Benchmarks {
		t.AddRow(b.Name, metrics.Pct(b.Max()), metrics.Pct(b.Avg()),
			metrics.Pct(metrics.Mean(b.Oracle)), len(b.Improvements))
	}
	t.AddRow("OVERALL", metrics.Pct(r.MaxOverall()), metrics.Pct(r.Overall()),
		metrics.Pct(r.OracleOverall()), r.Mixes)
	return t
}

// Sweep runs the two-phase experiment over every mixSize-subset of the pool
// under the given policy and accumulates per-benchmark improvements of the
// chosen schedule over the worst candidate schedule. This is the engine
// behind Figures 10, 11 and 12.
//
// All combos execute as one flat task graph on the work-stealing scheduler
// (one phase-1 task per mix spawning its candidate tasks), replacing the
// former nested pools (a pool over combos, each combo opening another pool
// over candidates). A sharded sweep merged with MergeShards produces an
// identical report — Sweep is literally the reduction of one full-range
// shard (see shard.go).
func (c Config) Sweep(pool []workload.Profile, policy alloc.Policy, mixSize int, v *VirtSpec) ImprovementReport {
	combos := Combinations(len(pool), mixSize)
	outcomes := c.sweepOutcomes(pool, policy, mixSize, v, 0, len(combos))
	return reduceOutcomes(poolNames(pool), policy.Name(), v != nil, mixSize, len(combos), outcomes)
}

// sweepOutcomes runs the combos in [lo,hi) of the pool's mixSize-combination
// space (lexicographic order, as Combinations emits them) and returns their
// outcomes in combo order. It is the shared body of Sweep (full range) and
// SweepShard (one shard's range).
func (c Config) sweepOutcomes(pool []workload.Profile, policy alloc.Policy, mixSize int, v *VirtSpec, lo, hi int) []MixOutcome {
	combos := Combinations(len(pool), mixSize)[lo:hi]
	jobs := make([]mixJob, len(combos))
	for i, combo := range combos {
		mix := make([]workload.Profile, 0, len(combo))
		for _, idx := range combo {
			mix = append(mix, pool[idx])
		}
		jobs[i] = mixJob{cfg: c, profiles: mix, policy: policy, candidates: c.candidatesFor(mix), virt: v}
	}
	return runMixJobs(c, jobs)
}

func poolNames(pool []workload.Profile) []string {
	names := make([]string, len(pool))
	for i, p := range pool {
		names[i] = p.Name
	}
	return names
}

// reduceOutcomes folds per-mix outcomes into the per-benchmark improvement
// report. It is the single reduction used by Sweep and MergeShards: both
// feed it outcomes in combo order over the same pool, so a merged sharded
// sweep is structurally guaranteed to reproduce the single-process report.
func reduceOutcomes(pool []string, policyName string, virtual bool, mixSize, mixes int, outcomes []MixOutcome) ImprovementReport {
	stats := map[string]*BenchStats{}
	for _, name := range pool {
		stats[name] = &BenchStats{Name: name}
	}
	for _, o := range outcomes {
		for i, name := range o.Names {
			stats[name].Improvements = append(stats[name].Improvements, o.ImprovementFor(i))
			stats[name].Oracle = append(stats[name].Oracle, o.OracleImprovementFor(i))
		}
	}
	report := ImprovementReport{
		Policy:  policyName,
		Virtual: virtual,
		MixSize: mixSize,
		Mixes:   mixes,
	}
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if len(stats[n].Improvements) > 0 {
			report.Benchmarks = append(report.Benchmarks, *stats[n])
		}
	}
	return report
}

// CandidatesFor exposes the candidate mapping space for a mix (used by the
// public facade).
func CandidatesFor(c Config, mix []workload.Profile) []alloc.Mapping {
	return c.candidatesFor(mix)
}

// candidatesFor returns the candidate mapping space for a mix: every
// balanced process-level grouping expanded to threads (for single-threaded
// mixes on two cores this is Table 1's three mappings), plus — for
// multi-threaded mixes — the default round-robin thread placement, since
// process-blocking is not obviously the right baseline for threads.
func (c Config) candidatesFor(mix []workload.Profile) []alloc.Mapping {
	cores := c.EngineConfig().Hierarchy.Cores
	procMaps := EnumerateMappings(len(mix), cores)
	out := make([]alloc.Mapping, 0, len(procMaps)+1)
	multithreaded := false
	sizes := make([]int, 0, len(mix))
	for _, p := range mix {
		sizes = append(sizes, p.Threads)
		if p.Threads > 1 {
			multithreaded = true
		}
	}
	for _, pm := range procMaps {
		out = append(out, expandSizes(pm, sizes))
	}
	if multithreaded {
		n := 0
		for _, s := range sizes {
			n += s
		}
		rr := make(alloc.Mapping, n)
		for i := range rr {
			rr[i] = i % cores
		}
		out = append(out, rr.Canonical())
	}
	return dedupMappings(out)
}

func expandSizes(procMap alloc.Mapping, sizes []int) alloc.Mapping {
	n := 0
	for _, s := range sizes {
		n += s
	}
	aff := make(alloc.Mapping, 0, n)
	for i, s := range sizes {
		for t := 0; t < s; t++ {
			aff = append(aff, procMap[i])
		}
	}
	return aff.Canonical()
}

func dedupMappings(ms []alloc.Mapping) []alloc.Mapping {
	seen := make(map[string]bool, len(ms))
	out := make([]alloc.Mapping, 0, len(ms))
	for _, m := range ms {
		if k := m.Key(); !seen[k] {
			seen[k] = true
			out = append(out, m)
		}
	}
	return out
}
