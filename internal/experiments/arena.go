package experiments

import (
	"fmt"
	"sync"

	"symbiosched/internal/alloc"
	"symbiosched/internal/bloom"
	"symbiosched/internal/cache"
	"symbiosched/internal/engine"
	"symbiosched/internal/kernel"
	"symbiosched/internal/monitor"
	"symbiosched/internal/workload"
)

// simArena is one worker's reusable simulation state. A sweep runs the same
// machine configuration thousands of times over a handful of distinct
// workloads; before the arenas, every one of those runs paid for a full
// engine.New (cache arrays, recency order words, Bloom filters, per-core
// stats) and a full kernel.Workload (generators, chase permutations). The
// arena keeps one machine per distinct engine configuration and the most
// recent workload, rewinding both in place (Machine.Reset,
// kernel.ResetWorkload) — bit-identical to fresh construction by the reset
// invariants those methods document, but allocation-free in steady state.
//
// Arenas are strictly worker-local while a sweep runs (each pool worker owns
// one) and are recycled through a package-level sync.Pool across sweeps, so
// repeated RunMix/Sweep calls — the benchmark loop, the figure drivers —
// amortise construction too.
type simArena struct {
	machines map[engineKey]*engine.Machine

	// Single-entry workload cache: the LIFO discipline of the scheduler
	// keeps a worker on one mix's candidates until they are exhausted, so
	// one slot captures almost all reuse. procs is rewound in place on hit.
	wlKey string
	procs []*kernel.Process

	// scratch backs every phase-1 monitor this arena runs, one at a time.
	// Each allocation decision rebuilds it in place, so only the arena's
	// first phase-1 run pays its warm-up, as with the cached machines.
	scratch alloc.Scratch
}

// engineKey is the comparable projection of engine.Config: every field that
// shapes simulation results, minus the function-valued AccessHook that makes
// the config itself uncomparable. Background is value-typed (the Dom0
// descriptor), so virtualized configurations key — and therefore cache —
// like native ones; only hook-instrumented configs bypass the arena (see
// machine).
type engineKey struct {
	hier             cache.HierarchyConfig
	sig              bloom.Config
	quantum          uint64
	batch            int
	l1, l2, mem, pf  uint64
	switchCost       uint64
	disableSignature bool
	background       engine.BackgroundConfig
}

func keyOf(ec engine.Config) engineKey {
	return engineKey{
		hier:             ec.Hierarchy,
		sig:              ec.Signature,
		quantum:          ec.QuantumCycles,
		batch:            ec.Batch,
		l1:               ec.L1Cost,
		l2:               ec.L2Cost,
		mem:              ec.MemCost,
		pf:               ec.PrefetchCost,
		switchCost:       ec.SwitchCost,
		disableSignature: ec.DisableSignature,
		background:       ec.Background,
	}
}

// arenaPool recycles arenas across sweeps and RunMix calls.
var arenaPool = sync.Pool{New: func() any { return &simArena{machines: map[engineKey]*engine.Machine{}} }}

func getArena() *simArena  { return arenaPool.Get().(*simArena) }
func putArena(a *simArena) { arenaPool.Put(a) }

// workloadKey identifies a workload build: the profile identities plus the
// seed and scale that parameterise kernel.Workload. Trace-driven profiles
// carry a content fingerprint alongside the name, so two trace pools that
// reuse a benchmark name can never alias in the cache.
func workloadKey(profiles []workload.Profile, seed uint64, sc workload.Scale) string {
	key := fmt.Sprintf("%d/%d/%d", seed, sc.Region, sc.Instr)
	for _, p := range profiles {
		key += "|" + p.Name
		if p.Fingerprint != "" {
			key += "#" + p.Fingerprint
		}
	}
	return key
}

// workload returns a rewound process set for the profiles: the cached set
// when the key matches and every instruction stream is rewindable, a fresh
// build otherwise.
func (a *simArena) workload(c Config, profiles []workload.Profile) []*kernel.Process {
	key := workloadKey(profiles, c.Seed, c.Scale())
	if a.wlKey == key && a.procs != nil && kernel.ResetWorkload(a.procs) {
		return a.procs
	}
	procs := kernel.Workload(profiles, c.Seed, c.Scale())
	a.wlKey, a.procs = key, procs
	return procs
}

// machine returns a machine for ec loaded with procs: the cached machine
// (reset in place) when one exists for this configuration, a fresh build —
// cached for next time — otherwise. Only hook-instrumented configurations
// cannot be keyed and are built fresh every time; background activity is a
// value-typed descriptor, so virtualized machines cache like native ones.
func (a *simArena) machine(ec engine.Config, procs []*kernel.Process) *engine.Machine {
	if ec.AccessHook != nil {
		return engine.New(ec, procs)
	}
	k := keyOf(ec)
	if m := a.machines[k]; m != nil {
		m.Reset(procs)
		return m
	}
	m := engine.New(ec, procs)
	a.machines[k] = m
	return m
}

// load rewinds (or builds) the job's process set and returns it with the
// engine configuration of the job's machine. A virtualized job boots its
// VMs as the hypervisor model prescribes: the guest threads carry the
// overhead factor again (ResetWorkload clears it) and the configuration
// gains the world-switch cost and the value-typed Dom0 descriptor, so the
// machine still comes out of the arena cache.
func (a *simArena) load(j *mixJob) ([]*kernel.Process, engine.Config) {
	procs := a.workload(j.cfg, j.profiles)
	ec := j.cfg.engineConfig(j.machine)
	if j.virt != nil {
		ov := j.virt.Overhead.Normalized()
		ov.Decorate(procs)
		ec = ov.EngineConfig(ec, j.cfg.Seed)
	}
	return procs, ec
}

// phase1 reproduces §4.1 for the job on the arena's reusable state: run the
// mix under the signature hardware from the default round-robin placement,
// invoking the job's policy every MonitorPeriod and applying its decisions,
// for Phase1Horizon cycles; return the majority mapping (thread-level,
// canonical).
func (a *simArena) phase1(j *mixJob) alloc.Mapping {
	procs, ec := a.load(j)
	m := a.machine(ec, procs)
	m.DistributeRoundRobin()
	mo := monitor.NewWithScratch(j.policy, &a.scratch)
	m.Run(engine.RunOptions{
		Horizon:       j.cfg.Phase1Horizon,
		MonitorPeriod: j.cfg.MonitorPeriod,
		OnMonitor:     mo.Hook(),
	})
	maj := mo.Majority()
	if maj == nil {
		// Degenerate horizon: fall back to the default placement.
		maj = alloc.RoundRobin{}.Allocate(make([]kernel.View, threadCount(j.profiles)), m.Cores())
	}
	return maj.Canonical()
}

// runMapping runs the job's mix to completion under a fixed thread-level
// mapping on the arena's reusable state and returns per-process user times.
// No policy ever reads a signature under a fixed mapping and signature
// events carry no timing cost, so the unit stays detached: identical
// results, no Bloom-filter maintenance on every L2 fill and evict.
func (a *simArena) runMapping(j *mixJob, aff alloc.Mapping) MixResult {
	procs, ec := a.load(j)
	ec.DisableSignature = true
	m := a.machine(ec, procs)
	m.SetAffinities(aff)
	res := m.Run(engine.RunOptions{})
	out := MixResult{
		Mapping:    aff.Canonical(),
		WallCycles: res.Cycles,
		UserCycles: make([]uint64, 0, len(procs)),
	}
	for _, p := range procs {
		out.UserCycles = append(out.UserCycles, p.CompletionUser())
	}
	return out
}
