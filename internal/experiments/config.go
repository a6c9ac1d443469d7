// Package experiments contains one driver per table and figure of the
// paper's evaluation (§2.3, §4, §5), built on the simulation stack: the
// two-phase methodology (signature gathering + majority vote, then
// run-to-completion under every candidate mapping), the pairwise
// interference studies, the algorithm and hash-function comparisons, and
// the overhead accounting. See DESIGN.md for the experiment index.
package experiments

import (
	"runtime"

	"symbiosched/internal/bloom"
	"symbiosched/internal/cache"
	"symbiosched/internal/engine"
	"symbiosched/internal/workload"
)

// Config parameterises a whole experiment campaign.
type Config struct {
	// MachineDiv scales the Core 2 Duo hierarchy and workload regions down
	// by this factor (16 reproduces the paper's shapes at ~1/16 size).
	MachineDiv int
	// InstrDiv scales run lengths down.
	InstrDiv uint64
	// Quantum is the scheduler time slice in cycles.
	Quantum uint64
	// MonitorPeriod is the allocator invocation period (the paper's 100 ms),
	// in cycles.
	MonitorPeriod uint64
	// Phase1Horizon is the length of the signature-gathering phase in
	// cycles (the paper's "2 billion instructions" window, scaled).
	Phase1Horizon uint64
	// Seed drives all workload randomness.
	Seed uint64
	// Workers bounds the simulation fan-out (0 = GOMAXPROCS).
	Workers int
	// Signature, if non-nil, overrides the signature-unit configuration
	// (used by the Fig 14 hash-function study and the ablation benches, all
	// on the Core 2 Duo, whose geometry it must match).
	Signature *bloom.Config
	// L2Replace overrides the shared L2's replacement policy (zero = LRU),
	// for the robustness ablation: the signature scheme never touches the
	// replacement logic, so it must keep working under FIFO or random
	// victim selection.
	L2Replace cache.Replacement
	// CandidateLimit caps phase-2 candidate enumeration for the large
	// mapping spaces (the quad-core study has 105 groupings): when positive,
	// candidates are subsampled deterministically and the chosen mapping is
	// always included. 0 runs them all.
	CandidateLimit int
	// SampleRate overrides the signature unit's set-sampling divisor when
	// Signature is nil (0 keeps the paper's default of 4). The Quick
	// configuration disables sampling: at 1/64 machine scale a sampled
	// filter has only 256 entries and saturates, losing the footprint
	// discrimination the full-size filter retains at 25% sampling.
	SampleRate int
	// ShardIndex/ShardTotal select one deterministic slice of a sweep's
	// combination space for cross-machine sharding (see shard.go): shard i
	// of N covers combos [i·C/N, (i+1)·C/N). Both zero means the whole
	// sweep; when set, 0 ≤ ShardIndex < ShardTotal is required. These only
	// affect SweepShard — Sweep always runs the full space. They are
	// execution parameters, not simulation parameters: the config hash
	// embedded in shard files excludes them (and Workers/OnTask), so shards
	// produced with different worker counts merge freely.
	ShardIndex int
	ShardTotal int
	// OnTask, if set, observes every completed scheduler task (phase-1 runs
	// and candidate runs, of every study: sweeps, Table 1, the fairness,
	// quad-core and pairwise studies) for progress reporting and utilization
	// analysis. It is called synchronously from the worker that executed
	// the task, concurrently across workers — it must be safe for
	// concurrent use and should return quickly.
	OnTask func(TaskInfo)
}

// Default returns the experiment-grade configuration: 1/16-scale machine,
// full-length runs.
func Default() Config {
	return Config{
		MachineDiv:    16,
		InstrDiv:      1,
		Quantum:       4_000_000,
		MonitorPeriod: 4_000_000,
		Phase1Horizon: 80_000_000,
		Seed:          0x5eed,
	}
}

// Quick returns a configuration small enough for unit tests: 1/64-scale
// machine and 1/8-length runs.
func Quick() Config {
	return Config{
		MachineDiv:    64,
		InstrDiv:      8,
		Quantum:       1_000_000,
		MonitorPeriod: 1_000_000,
		Phase1Horizon: 12_000_000,
		Seed:          0x5eed,
		SampleRate:    1,
	}
}

// Scale returns the workload scale corresponding to this configuration.
func (c Config) Scale() workload.Scale {
	return workload.Scale{Region: uint64(c.MachineDiv), Instr: c.InstrDiv}
}

// machine names the simulated machine a run executes on.
type machine uint8

const (
	// coreDuo is the paper's evaluation machine: two cores sharing the L2.
	coreDuo machine = iota
	// xeon is the §2.3.1 baseline: a P4 Xeon SMP with private L2s.
	xeon
	// quadCore is the §3.3.2 extension: four cores sharing one L2.
	quadCore
)

// EngineConfig returns the simulated machine: the paper's Core 2 Duo scaled
// by MachineDiv.
func (c Config) EngineConfig() engine.Config { return c.engineConfig(coreDuo) }

// engineConfig returns machine m scaled by MachineDiv, with the campaign's
// L2 replacement policy and signature unit.
func (c Config) engineConfig(m machine) engine.Config {
	hier := cache.CoreDuoConfig()
	switch m {
	case xeon:
		hier = cache.XeonSMPConfig()
	case quadCore:
		hier = cache.QuadCoreConfig()
	}
	ec := engine.Config{
		Hierarchy:     hier.Scaled(c.MachineDiv),
		QuantumCycles: c.Quantum,
	}
	ec.Hierarchy.L2.Replace = c.L2Replace
	if c.Signature != nil {
		ec.Signature = *c.Signature
	} else if c.SampleRate > 0 {
		g := bloom.Geometry{Sets: ec.Hierarchy.L2.Sets(), Ways: ec.Hierarchy.L2.Ways}
		sig := bloom.DefaultConfig(g, ec.Hierarchy.Cores)
		sig.CounterBits = 8
		sig.SampleRate = c.SampleRate
		ec.Signature = sig
	}
	return ec
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}
