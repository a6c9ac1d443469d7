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

// virtConfig rewinds (or builds) the process set for a virtualized run,
// re-attaches the per-instruction overhead factors that ResetWorkload
// cleared, and returns the hypervisor-decorated engine configuration —
// value-typed throughout, so the machine comes out of the arena cache. The
// simulated system is bit-identical to virt.NewSystem's (same workload
// build, same decoration, same config transform).
func (a *simArena) virtConfig(c Config, profiles []workload.Profile, v *VirtSpec) ([]*kernel.Process, engine.Config) {
	ov := v.Overhead.Normalized()
	procs := a.workload(c, profiles)
	ov.Decorate(procs)
	return procs, ov.EngineConfig(c.EngineConfig(), c.Seed)
}

// phase1 is Config.Phase1 running on the arena's reusable state (native and
// virtualized both — the value-typed Dom0 descriptor keys like any other
// config field).
func (a *simArena) phase1(c Config, profiles []workload.Profile, policy alloc.Policy, v *VirtSpec) alloc.Mapping {
	var procs []*kernel.Process
	var ec engine.Config
	if v != nil {
		procs, ec = a.virtConfig(c, profiles, v)
	} else {
		procs = a.workload(c, profiles)
		ec = c.EngineConfig()
	}
	m := a.machine(ec, procs)
	m.DistributeRoundRobin()
	mo := monitor.NewWithScratch(policy, &a.scratch)
	m.Run(engine.RunOptions{
		Horizon:       c.Phase1Horizon,
		MonitorPeriod: c.MonitorPeriod,
		OnMonitor:     mo.Hook(),
	})
	maj := mo.Majority()
	if maj == nil {
		maj = alloc.RoundRobin{}.Allocate(make([]kernel.View, threadCount(profiles)), m.Cores())
	}
	return maj.Canonical()
}

// runMapping is Config.RunMapping running on the arena's reusable state,
// with the same phase-2 configuration (signature unit detached — neutral
// for results in both the native and virtualized cases, since signature
// events carry no timing cost and nothing reads Sig under a fixed mapping).
func (a *simArena) runMapping(c Config, profiles []workload.Profile, aff []int, v *VirtSpec) MixResult {
	var procs []*kernel.Process
	var ec engine.Config
	if v != nil {
		procs, ec = a.virtConfig(c, profiles, v)
	} else {
		procs = a.workload(c, profiles)
		ec = c.EngineConfig()
	}
	ec.DisableSignature = true
	m := a.machine(ec, procs)
	m.SetAffinities(aff)
	res := m.Run(engine.RunOptions{})
	out := MixResult{
		Mapping:    alloc.Mapping(aff).Canonical(),
		WallCycles: res.Cycles,
		UserCycles: make([]uint64, 0, len(procs)),
	}
	for _, p := range procs {
		out.UserCycles = append(out.UserCycles, p.CompletionUser())
	}
	return out
}
