// Package engine is the multicore execution simulator that replaces the
// paper's Simics phase and its real-machine phase: it interleaves per-core
// instruction streams over the shared cache hierarchy with a simple timing
// model, drives context switches and signature collection, and lets a
// monitor callback re-pin threads exactly the way the paper's user-level
// allocation process does through affinity bits (§3.2, §4).
package engine

import (
	"fmt"

	"symbiosched/internal/bloom"
	"symbiosched/internal/cache"
	"symbiosched/internal/kernel"
	"symbiosched/internal/workload"
)

// Config parameterises a simulated machine.
type Config struct {
	Hierarchy cache.HierarchyConfig
	// Signature configures the Bloom-filter unit. A zero value derives the
	// paper's default (XOR hash, 25% sampling) from the L2 geometry, with
	// 8-bit counters to keep saturation out of the baseline experiments
	// (the paper requires counters "wide enough to prevent saturation";
	// 3-bit counters are exercised by the ablation benchmarks).
	Signature bloom.Config
	// QuantumCycles is the scheduler time slice. 0 selects the default
	// (250k cycles, a scaled-down Linux slice).
	QuantumCycles uint64
	// Batch is the number of instructions dispatched per scheduling step; a
	// smaller batch interleaves cores more finely. 0 selects 256.
	Batch int
	// Timing model, in cycles. Zero values select 3 / 14 / 100 / 20 — a
	// Core-2-class hit/miss cost ratio with a next-line prefetcher that
	// hides most of the DRAM latency of sequential misses.
	L1Cost, L2Cost, MemCost, PrefetchCost uint64
	// SwitchCost is charged to a core's clock at every context switch.
	// Native OS switches are effectively free at this model's resolution;
	// the virtualization layer sets it to model VM world-switch cost.
	SwitchCost uint64
	// AccessHook, if set, observes every memory access after it resolves
	// (instrumentation for footprint ground truth; nil in normal runs). It
	// only observes: a hooked run is cycle- and counter-identical to an
	// unhooked one. Thread and cache counters are credited once per batch,
	// so a hook must not read them.
	AccessHook func(core int, lineAddr uint64, level cache.Level)
	// DisableSignature leaves the signature units detached from the L2s:
	// fills and evictions skip the Bloom-filter maintenance entirely and
	// context switches capture no signature at all (threads keep Sig nil,
	// so a snapshot would report HasSig false). For runs whose signatures
	// nobody reads — phase-2 run-to-completion under a fixed mapping — the
	// hardware model is dead weight (its events have no timing cost and no
	// effect on any reported metric), and detaching it measurably speeds up
	// the sweeps. Runs that feed a policy (phase 1, the monitor loop) must
	// keep it off.
	DisableSignature bool
	// Background models periodic service activity — hypervisor/Dom0 work or
	// OS housekeeping. Every Period cycles each busy core executes Ops
	// instructions from its own background generator: the work consumes
	// wall-clock time and pollutes the caches but is charged to no thread's
	// user time, like interrupt/dom0 time on a real system. Idle cores (no
	// runnable threads) skip their background work — their clocks are
	// parked, and service load tracks guest activity as on a real
	// hypervisor.
	Background BackgroundConfig
}

// BackgroundConfig describes per-core service activity (see Config). Gen is
// a value-typed descriptor rather than a generator factory so that a config
// with background activity stays comparable — the experiments arenas key
// cached machines by configuration, and the virtualized sweeps (which always
// carry Dom0 background work) would otherwise pay full machine construction
// on every run.
type BackgroundConfig struct {
	Period uint64
	Ops    uint64
	// Gen describes the per-core background instruction stream; generators
	// are built once per core at machine construction and rewound in place
	// on Machine.Reset.
	Gen workload.BackgroundSpec
}

func (b BackgroundConfig) enabled() bool {
	return b.Period > 0 && b.Ops > 0 && b.Gen.Enabled()
}

func (c Config) withDefaults() Config {
	if c.QuantumCycles == 0 {
		// Sized so a full L2 refill (lines × miss cost) stays an order of
		// magnitude below the slice, as on real machines, at the default
		// experiment scale (1/16 machine): the paper's same-core warm-up
		// penalty (§2.3.1) then stays under ~10%.
		c.QuantumCycles = 4_000_000
	}
	if c.Batch == 0 {
		c.Batch = 256
	}
	if c.L1Cost == 0 {
		c.L1Cost = 3
	}
	if c.L2Cost == 0 {
		c.L2Cost = 14
	}
	if c.MemCost == 0 {
		c.MemCost = 100
	}
	if c.PrefetchCost == 0 {
		c.PrefetchCost = 20
	}
	if c.Signature.Cores == 0 {
		g := bloom.Geometry{Sets: c.Hierarchy.L2.Sets(), Ways: c.Hierarchy.L2.Ways}
		c.Signature = bloom.DefaultConfig(g, c.Hierarchy.Cores)
		c.Signature.CounterBits = 8
	}
	return c
}

// DefaultConfig returns the paper's evaluation machine: the Core 2 Duo
// hierarchy with the default signature unit and timing model.
func DefaultConfig() Config {
	return Config{Hierarchy: cache.CoreDuoConfig()}
}

// coreState is the per-core scheduler and timing state.
type coreState struct {
	time         uint64 // local cycle clock
	queue        []*kernel.Thread
	cur          int // index of the running thread in queue
	quantumLeft  int64
	lastMissLine uint64
	switches     uint64
	bgGen        *workload.Generator
	nextBg       uint64
}

// Machine is one simulated multicore system executing a process set.
type Machine struct {
	cfg     Config
	hier    *cache.Hierarchy
	units   []*bloom.Unit // one per distinct L2 (one element when shared)
	procs   []*kernel.Process
	threads []*kernel.Thread
	cores   []coreState
	now     uint64 // time of the most recently dispatched core

	// Dispatch index: runnable lists the cores with non-empty run queues
	// (rebuilt whenever queues change). Small machines scan it linearly;
	// machines above pickCoreLinearMax runnable cores maintain a binary
	// min-heap keyed by (local clock, core index) so pickCore is O(log n).
	runnable []int
	heap     []int
	useHeap  bool
}

// pickCoreLinearMax is the largest runnable-core count for which the linear
// scan is used. A branchy heap only pays off once the scan no longer fits in
// a couple of cache lines; the paper's machines (2–4 cores) stay linear.
const pickCoreLinearMax = 8

// New builds a machine running the given processes. Initial affinities are
// taken from each thread's Affinity field (default 0); call SetAffinities or
// DistributeRoundRobin before Run to choose a mapping.
func New(cfg Config, procs []*kernel.Process) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{
		cfg:     cfg,
		hier:    cache.NewHierarchy(cfg.Hierarchy),
		procs:   procs,
		threads: kernel.Threads(procs),
		cores:   make([]coreState, cfg.Hierarchy.Cores),
	}
	// One signature unit per distinct L2: a private-L2 machine gets one
	// unit per core (its cross-core filters simply stay empty — no shared
	// cache, no interference), a shared-L2 machine gets the paper's single
	// unit. The unit is attached concretely (SetUnit) so every fill/evict
	// on the hot path is a direct call, not an interface dispatch.
	for _, l2 := range m.hier.L2s() {
		u := bloom.NewUnit(cfg.Signature)
		m.units = append(m.units, u)
		if !cfg.DisableSignature {
			l2.SetUnit(u)
		}
	}
	if cfg.Background.enabled() {
		for c := range m.cores {
			m.cores[c].bgGen = cfg.Background.Gen.NewGenerator(c)
			m.cores[c].nextBg = cfg.Background.Period
		}
	}
	m.rebuildQueues()
	return m
}

// Reset rewinds the machine to its just-constructed state and installs a new
// process set, reusing every allocation: cache arrays, recency order words,
// signature filters and per-core statistics tables all keep their storage.
// After Reset the machine is observationally identical to New(cfg, procs) —
// the invariant the sweep arenas rely on to amortise construction across
// thousands of runs; any new mutable field added to Machine or coreState
// must be reset here. Initial affinities are taken from each thread's
// Affinity field, exactly as in New. Per-core background generators are
// rewound in place so their streams restart from scratch.
func (m *Machine) Reset(procs []*kernel.Process) {
	// Return the outgoing threads' signature records to their units' pools
	// first: the next process set then captures into pooled records instead
	// of allocating, and no stale lazy references keep Core Filter versions
	// alive across the unit resets below. (ResetWorkload may already have
	// released them; Release on a detached record is a no-op.)
	for _, t := range m.threads {
		if t.Sig != nil {
			t.Sig.Release()
			t.Sig = nil
		}
	}
	m.hier.Reset()
	for _, u := range m.units {
		u.Reset()
	}
	m.procs = procs
	m.threads = kernel.Threads(procs)
	for c := range m.cores {
		cs := &m.cores[c]
		queue, bg := cs.queue[:0], cs.bgGen
		*cs = coreState{queue: queue}
		if bg != nil {
			bg.Reset()
			cs.bgGen = bg
			cs.nextBg = m.cfg.Background.Period
		}
	}
	m.now = 0
	m.rebuildQueues()
}

// Unit exposes the signature unit of the first (shared) L2 — the common
// case; use UnitFor with private-L2 hierarchies.
func (m *Machine) Unit() *bloom.Unit { return m.units[0] }

// UnitFor returns the signature unit shadowing the L2 that serves core.
func (m *Machine) UnitFor(core int) *bloom.Unit {
	return m.units[m.hier.L2Index(core)]
}

// Hierarchy exposes the cache hierarchy for stats collection.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Processes returns the process set.
func (m *Machine) Processes() []*kernel.Process { return m.procs }

// Now returns the current simulated time in cycles.
func (m *Machine) Now() uint64 { return m.now }

// Cores returns the number of cores in the machine.
func (m *Machine) Cores() int { return len(m.cores) }

// ContextSwitches returns the total number of context switches performed.
func (m *Machine) ContextSwitches() uint64 {
	var n uint64
	for i := range m.cores {
		n += m.cores[i].switches
	}
	return n
}

// SetAffinities pins thread i to core aff[i] and rebuilds the run queues.
// A running thread whose affinity changes is context-switched out first so
// its signature stays coherent.
func (m *Machine) SetAffinities(aff []int) {
	if len(aff) != len(m.threads) {
		panic(fmt.Sprintf("engine: %d affinities for %d threads", len(aff), len(m.threads)))
	}
	changed := false
	for i, t := range m.threads {
		if aff[i] < 0 || aff[i] >= len(m.cores) {
			panic(fmt.Sprintf("engine: affinity %d out of range", aff[i]))
		}
		if t.Affinity != aff[i] {
			t.Affinity = aff[i]
			changed = true
		}
	}
	if changed {
		m.rebuildQueues()
	}
}

// Affinities returns the current thread→core pinning.
func (m *Machine) Affinities() []int {
	out := make([]int, len(m.threads))
	for i, t := range m.threads {
		out[i] = t.Affinity
	}
	return out
}

// DistributeRoundRobin assigns thread i to core i mod N — the default
// schedule a contention-oblivious OS would produce.
func (m *Machine) DistributeRoundRobin() {
	aff := make([]int, len(m.threads))
	for i := range aff {
		aff[i] = i % len(m.cores)
	}
	m.SetAffinities(aff)
}

// rebuildQueues redistributes threads into per-core run queues, capturing a
// signature for any core whose running thread is displaced.
func (m *Machine) rebuildQueues() {
	// Capture signatures for currently running threads before the reshuffle
	// (the §3.1 protocol: every deschedule updates the context record).
	for c := range m.cores {
		cs := &m.cores[c]
		if len(cs.queue) > 0 {
			cs.switches++
			// A reshuffle can interrupt a quantum early; a signature from a
			// short partial quantum under-measures the footprint, so keep
			// the previous full-quantum signature unless at least half the
			// slice elapsed. When the signature unit is detached the capture
			// is skipped entirely: the filters are empty and nothing ever
			// reads Sig in such runs.
			if !m.cfg.DisableSignature {
				t := cs.queue[cs.cur]
				elapsed := int64(m.cfg.QuantumCycles) - cs.quantumLeft
				if t.Sig == nil || 2*elapsed >= int64(m.cfg.QuantumCycles) {
					// Overwrite the thread's own record in place (it is being
					// replaced; nothing else aliases its buffers).
					t.Sig = m.UnitFor(c).ContextSwitchInto(c, t.Sig)
				} else {
					m.UnitFor(c).DiscardSwitch(c)
				}
			}
		}
		cs.queue = cs.queue[:0]
		cs.cur = 0
		cs.quantumLeft = 0
	}
	for _, t := range m.threads {
		cs := &m.cores[t.Affinity]
		cs.queue = append(cs.queue, t)
	}
	// Give each core a fresh quantum so the first dispatch after a reshuffle
	// does not immediately rotate past its first thread.
	for c := range m.cores {
		m.cores[c].quantumLeft = int64(m.cfg.QuantumCycles)
	}
	// Align idle clocks so a newly populated core does not replay the past.
	var maxTime uint64
	for c := range m.cores {
		if m.cores[c].time > maxTime {
			maxTime = m.cores[c].time
		}
	}
	for c := range m.cores {
		if len(m.cores[c].queue) == 0 {
			m.cores[c].time = maxTime
		}
	}
	m.rebuildRunnable()
}

// rebuildRunnable refreshes the dispatch index after any queue change: the
// runnable core list, and — for large machines — the min-heap over it.
func (m *Machine) rebuildRunnable() {
	m.runnable = m.runnable[:0]
	for c := range m.cores {
		if len(m.cores[c].queue) > 0 {
			m.runnable = append(m.runnable, c)
		}
	}
	m.useHeap = len(m.runnable) > pickCoreLinearMax
	if m.useHeap {
		m.heap = append(m.heap[:0], m.runnable...)
		for i := len(m.heap)/2 - 1; i >= 0; i-- {
			m.siftDown(i)
		}
	}
}

// coreLess orders cores by (local clock, index) — the deterministic dispatch
// order of the simulator.
func (m *Machine) coreLess(a, b int) bool {
	ta, tb := m.cores[a].time, m.cores[b].time
	return ta < tb || (ta == tb && a < b)
}

// siftDown restores the heap invariant below position i.
func (m *Machine) siftDown(i int) {
	h := m.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && m.coreLess(h[r], h[l]) {
			min = r
		}
		if !m.coreLess(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// RunOptions controls one simulation.
type RunOptions struct {
	// Horizon stops the run after this many cycles; 0 means run until every
	// thread completes at least one full run (the paper's "restart until
	// the longest benchmark completes" protocol).
	Horizon uint64
	// MonitorPeriod invokes OnMonitor every this many cycles (0 disables):
	// the paper's 100 ms allocator period, scaled to the simulation.
	MonitorPeriod uint64
	// OnMonitor is the user-level policy hook; it may call SetAffinities.
	OnMonitor func(m *Machine, now uint64)
}

// Result summarises a run.
type Result struct {
	Cycles       uint64 // final simulated time (max core clock)
	Instructions uint64 // total instructions retired
	AllDone      bool   // every thread completed ≥ 1 run
}

// Run executes the machine until the options' stopping condition.
func (m *Machine) Run(opts RunOptions) Result {
	var retired uint64
	nextMonitor := opts.MonitorPeriod

	for {
		if m.allDone() && opts.Horizon == 0 {
			break
		}
		c := m.pickCore()
		if c < 0 {
			break // nothing runnable anywhere
		}
		cs := &m.cores[c]
		m.now = cs.time
		if opts.Horizon > 0 && m.now >= opts.Horizon {
			break
		}
		if opts.MonitorPeriod > 0 && m.now >= nextMonitor {
			if opts.OnMonitor != nil {
				opts.OnMonitor(m, m.now)
			}
			nextMonitor += opts.MonitorPeriod
			continue // queues may have changed
		}
		retired += m.step(c)
	}

	var maxTime uint64
	for i := range m.cores {
		if m.cores[i].time > maxTime {
			maxTime = m.cores[i].time
		}
	}
	return Result{Cycles: maxTime, Instructions: retired, AllDone: m.allDone()}
}

func (m *Machine) allDone() bool {
	for _, t := range m.threads {
		if !t.Done() {
			return false
		}
	}
	return true
}

// pickCore returns the runnable core with the smallest local clock (lowest
// index on ties), or -1. Small machines scan the runnable list; large ones
// use the min-heap, whose (clock, index) ordering selects the same core the
// linear scan would, so dispatch order is identical on both paths. Between
// calls only the previously picked core's clock can change (it is the heap
// root), so one siftDown from the root restores the invariant.
func (m *Machine) pickCore() int {
	if !m.useHeap {
		best := -1
		var bestTime uint64
		for _, c := range m.runnable {
			if t := m.cores[c].time; best < 0 || t < bestTime {
				best, bestTime = c, t
			}
		}
		return best
	}
	if len(m.heap) == 0 {
		return -1
	}
	m.siftDown(0)
	return m.heap[0]
}

// step runs one dispatch batch on core c and returns instructions retired.
func (m *Machine) step(c int) uint64 {
	cs := &m.cores[c]
	if cs.bgGen != nil && cs.time >= cs.nextBg {
		m.runBackground(c)
	}
	if cs.quantumLeft <= 0 {
		m.contextSwitch(c)
	}
	t := cs.queue[cs.cur]

	num, den := uint64(t.CostNum), uint64(t.CostDen)
	if den == 0 {
		num, den = 1, 1
	}
	n := m.cfg.Batch
	// The per-instruction cost factor (virtualization overhead) is applied
	// at batch granularity to avoid integer-truncation bias on cheap ops.
	cycles := m.batch(cs, t, c, n, num, den) * num / den
	t.UserCycles += cycles
	cs.time += cycles
	cs.quantumLeft -= int64(cycles)
	return uint64(n)
}

// batch is the engine's access loop: it runs n instructions of thread t on
// core c and returns their cycles before the cost factor num/den. It
// consumes the thread's source through NextRun, so the engine pays one call
// (and one cost/retirement update) per memory operation; the compute
// instructions between memory operations are retired in bulk at one cycle
// each. NextRun consumes exactly the instructions that as many Next calls
// would (workload's contract test pins this for every source), so the loop
// is exact for synthetic generators, trace replays and wrapped Next-only
// sources alike.
func (m *Machine) batch(cs *coreState, t *kernel.Thread, c, n int, num, den uint64) uint64 {
	src, hook := t.Gen, m.cfg.AccessHook
	// The two hierarchy levels are hoisted to concrete cache pointers: the
	// per-access walk is two direct calls with no wrapper frame, matching
	// Hierarchy.Access exactly (non-inclusive, L1 then the core's L2).
	l1, l2 := m.hier.L1For(c), m.hier.L2For(c)
	l1Cost, l2Cost := m.cfg.L1Cost, m.cfg.L2Cost
	memCost, prefCost := m.cfg.MemCost, m.cfg.PrefetchCost
	// Thread and core counters live in locals across the batch and are
	// written back once — the loop body touches memory only through the
	// cache model.
	target, retired := t.InstrTarget, t.InstrRetired
	lastMiss := cs.lastMissLine
	var memRefs, l2Refs, l2Misses uint64
	var cycles uint64
	i := 0
	for i < n {
		skip, addr, mem := src.NextRun(n - i)
		if skip > 0 {
			// Bulk-retire the run of compute instructions: 1 cycle each, with
			// run-completion checks folded into whole-target chunks. The inner
			// loop runs at most once per completed run (InstrTarget ≥ 1), not
			// per instruction.
			i += skip
			left := uint64(skip)
			for left >= target-retired {
				done := target - retired
				left -= done
				cycles += done
				if t.Runs == 0 {
					t.CompletionUser = t.UserCycles + cycles*num/den
				}
				t.Runs++
				retired = 0
			}
			retired += left
			cycles += left
		}
		if !mem {
			break
		}
		i++
		memRefs++
		cost, level := uint64(1), cache.L1
		if l1.AccessFast(c, addr) {
			cost += l1Cost
		} else if l2Refs++; l2.AccessFast(c, addr) {
			cost += l2Cost
			level = cache.L2
		} else {
			l2Misses++
			line := addr >> 6
			if line == lastMiss+1 {
				cost += prefCost
			} else {
				cost += memCost
			}
			lastMiss = line
			level = cache.Memory
		}
		if hook != nil {
			hook(c, addr>>6, level)
		}
		cycles += cost
		retired++
		if retired >= target {
			if t.Runs == 0 {
				t.CompletionUser = t.UserCycles + cycles*num/den
			}
			t.Runs++
			retired = 0
		}
	}
	t.InstrRetired = retired
	t.MemRefs += memRefs
	t.L2Refs += l2Refs
	t.L2Misses += l2Misses
	cs.lastMissLine = lastMiss
	// Credit the cache statistics accumulated in registers (AccessFast does
	// not count): L1 sees every memory reference and misses exactly the L2
	// references; L2 misses are the memory accesses.
	l1.AddCoreStats(c, memRefs-l2Refs, l2Refs)
	l2.AddCoreStats(c, l2Refs-l2Misses, l2Misses)
	return cycles
}

// runBackground executes one burst of service activity on core c, charging
// wall time (and cache pollution) but no thread's user time. It is kept
// apart from batch because it gets no prefetch credit and is charged to the
// core clock, not to a thread.
func (m *Machine) runBackground(c int) {
	cs := &m.cores[c]
	var cycles uint64
	for i := uint64(0); i < m.cfg.Background.Ops; i++ {
		ref := cs.bgGen.Next()
		cost := uint64(1)
		if ref.Mem {
			switch m.hier.Access(c, ref.Addr) {
			case cache.L1:
				cost += m.cfg.L1Cost
			case cache.L2:
				cost += m.cfg.L2Cost
			default:
				cost += m.cfg.MemCost
			}
		}
		cycles += cost
	}
	cs.time += cycles
	cs.nextBg += m.cfg.Background.Period
}

// contextSwitch captures the outgoing thread's signature, stores it in its
// context, and rotates the core's run queue. The capture reuses the
// thread's previous signature record in place (allocation-free in steady
// state) and is skipped entirely when the signature unit is detached.
//
// The capture is lazy (see bloom.ContextSwitchInto): only the RBV and the
// filter-version references are taken here, so the per-switch cost (every
// quantum expiry in the batch loop funnels through this path) is O(filter
// words), not O(cores × filter words). The symbiosis/overlap vectors
// materialize when the monitor snapshot reads them — runs whose signatures
// are never read (phase-2 pinned runs, detached-monitor sweeps) never pay
// for them.
func (m *Machine) contextSwitch(c int) {
	cs := &m.cores[c]
	if !m.cfg.DisableSignature {
		t := cs.queue[cs.cur]
		t.Sig = m.UnitFor(c).ContextSwitchInto(c, t.Sig)
	}
	cs.switches++
	cs.time += m.cfg.SwitchCost
	cs.cur = (cs.cur + 1) % len(cs.queue)
	cs.quantumLeft = int64(m.cfg.QuantumCycles)
}
