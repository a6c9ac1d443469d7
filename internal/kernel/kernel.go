// Package kernel models the operating-system side of the paper's system:
// processes and threads with per-core run queues, affinity masks set by a
// user-level monitor, and the per-context signature record (§3.2) that the
// hardware unit fills in at every context switch.
//
// The same types model VMs under the hypervisor: the paper's VM experiments
// encapsulate one benchmark per VM, so a VM's vcpu behaves exactly like a
// process whose signatures are collected at VM switch time (§3.1, §4.2).
package kernel

import (
	"fmt"

	"symbiosched/internal/bloom"
	"symbiosched/internal/workload"
)

// Thread is one schedulable context: a single-threaded process body, one
// thread of a multi-threaded process, or a VM's vcpu.
type Thread struct {
	ID   int // global thread index
	Proc *Process
	Gen  workload.RunSource

	// Affinity is the core this thread is pinned to. The paper's monitor
	// only ever pins (sets affinity bits); the in-core time-slicing is left
	// to the ordinary scheduler.
	Affinity int

	// InstrTarget is the dynamic instruction count of one complete run.
	InstrTarget uint64
	// InstrRetired counts instructions of the current (possibly restarted)
	// run.
	InstrRetired uint64
	// Runs counts completed runs; the paper restarts finished benchmarks
	// until the longest one in the mix completes.
	Runs int

	// UserCycles accumulates cycles consumed while scheduled on a core.
	UserCycles uint64
	// CompletionUser is UserCycles at the moment the first run completed
	// (0 while unfinished).
	CompletionUser uint64

	// CostNum/CostDen scale every instruction's cycle cost by a rational
	// factor (both 0 means 1/1). The virtualization layer uses this to model
	// the hypervisor's per-instruction overhead (§5.1.2: VM gains are lower
	// partly because of virtualization overhead).
	CostNum, CostDen uint32

	// MemRefs, L2Refs and L2Misses are event-counter statistics of the kind
	// a performance-counter-based scheduler would use (§2.2 argues these
	// are poor footprint proxies; the miss-rate baseline policy consumes
	// them so the claim can be tested).
	MemRefs  uint64
	L2Refs   uint64
	L2Misses uint64

	// Sig is the most recent hardware signature captured when this thread
	// was context-switched out (§3.2's (2+N)-entry record plus the RBV).
	Sig *bloom.Signature
}

// L2MissRate returns L2Misses/L2Refs, or 0 before any L2 access.
func (t *Thread) L2MissRate() float64 {
	if t.L2Refs == 0 {
		return 0
	}
	return float64(t.L2Misses) / float64(t.L2Refs)
}

// Done reports whether the first run has completed.
func (t *Thread) Done() bool { return t.Runs > 0 }

// Process groups the threads of one program instance (or the single vcpu of
// a VM).
type Process struct {
	ID      int
	Name    string
	Profile workload.Profile
	Threads []*Thread
}

// Done reports whether every thread has completed its first run.
func (p *Process) Done() bool {
	for _, t := range p.Threads {
		if !t.Done() {
			return false
		}
	}
	return true
}

// UserCycles returns the total user time (in cycles) consumed by the
// process's threads so far.
func (p *Process) UserCycles() uint64 {
	var sum uint64
	for _, t := range p.Threads {
		sum += t.UserCycles
	}
	return sum
}

// CompletionUser returns the process's user time to completion: the sum of
// the per-thread user cycles frozen at each thread's first completion.
// It returns 0 if the process has not completed.
func (p *Process) CompletionUser() uint64 {
	if !p.Done() {
		return 0
	}
	var sum uint64
	for _, t := range p.Threads {
		sum += t.CompletionUser
	}
	return sum
}

// Workload instantiates a set of processes from profiles, assigning
// address-space IDs, deterministic per-process seeds derived from seed, and
// the scale (region divisor for working sets, instruction divisor for run
// lengths).
func Workload(profiles []workload.Profile, seed uint64, sc workload.Scale) []*Process {
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	root := workload.NewRand(seed)
	procs := make([]*Process, len(profiles))
	tid := 0
	for i, prof := range profiles {
		p := &Process{ID: i, Name: prof.Name, Profile: prof}
		gens := prof.NewSources(i+1, root.Uint64(), sc.Region)
		perThread := prof.ScaledInstructions(sc.Instr) / uint64(len(gens))
		if perThread == 0 {
			perThread = 1
		}
		for _, g := range gens {
			t := &Thread{
				ID:          tid,
				Proc:        p,
				Gen:         g,
				InstrTarget: perThread,
			}
			tid++
			p.Threads = append(p.Threads, t)
		}
		procs[i] = p
	}
	return procs
}

// Reset returns the thread to its just-created state: all progress counters,
// statistics, the captured signature, the affinity and the virtualization
// cost factor are cleared (matching a thread fresh out of Workload, before
// any virt layer decorates it). The instruction stream is rewound in place
// when the source supports it: a synthetic *workload.Generator, or any
// workload.Rewinder (compiled and streaming trace replays). Reset reports
// false — and leaves the thread counters cleared but the stream untouched —
// for non-rewindable sources, in which case the caller must rebuild the
// workload instead of reusing it.
func (t *Thread) Reset() bool {
	t.Affinity = 0
	t.InstrRetired = 0
	t.Runs = 0
	t.UserCycles = 0
	t.CompletionUser = 0
	t.CostNum, t.CostDen = 0, 0
	t.MemRefs, t.L2Refs, t.L2Misses = 0, 0, 0
	// Return the signature record to its unit's pool (and drop its lazy
	// filter-version references) rather than just dropping the pointer.
	t.Sig.Release()
	t.Sig = nil
	switch g := t.Gen.(type) {
	case *workload.Generator:
		g.Reset()
		return true
	case workload.Rewinder:
		return g.Rewind()
	}
	return false
}

// ResetWorkload rewinds a process set built by Workload to its
// just-constructed state in place, keeping every allocation (threads,
// generators, pattern permutations). It reports whether every thread's
// instruction stream was rewindable; on false the set must be rebuilt with
// Workload instead. After a true return, running the processes is
// bit-identical to running a fresh Workload with the same arguments — the
// invariant the simulation arenas rely on.
func ResetWorkload(procs []*Process) bool {
	ok := true
	for _, p := range procs {
		for _, t := range p.Threads {
			if !t.Reset() {
				ok = false
			}
		}
	}
	return ok
}

// SourceProcess wraps an arbitrary instruction source (a trace replay, a
// custom model) as a single-threaded process with the given run length. A
// Next-only source is adapted to a RunSource here, once (see
// workload.AsRunSource). The returned process's thread ID is id; callers
// composing mixed process sets must keep IDs dense in creation order.
func SourceProcess(id int, name string, src workload.RefSource, instrTarget uint64) *Process {
	if instrTarget == 0 {
		panic("kernel: zero instruction target")
	}
	p := &Process{ID: id, Name: name, Profile: workload.Profile{Name: name, Threads: 1}}
	p.Threads = []*Thread{{ID: id, Proc: p, Gen: workload.AsRunSource(src), InstrTarget: instrTarget}}
	return p
}

// Threads flattens the thread lists of a process set in global ID order.
func Threads(procs []*Process) []*Thread {
	var out []*Thread
	for _, p := range procs {
		out = append(out, p.Threads...)
	}
	for i, t := range out {
		if t.ID != i {
			panic(fmt.Sprintf("kernel: thread IDs not dense: %d at %d", t.ID, i))
		}
	}
	return out
}

// View is the read-only snapshot of one thread the monitor receives through
// the §3.2 syscall interface. Occupancy and Symbiosis come from the last
// captured hardware signature; threads that have not yet been profiled
// report HasSig false. The Symbiosis/Overlap entries are int32 — popcounts
// over a filter never exceed the filter size — so a P×N snapshot packs into
// half the memory and the Snapshotter can back all views with two flat
// matrices.
type View struct {
	ThreadID   int
	ProcID     int
	Name       string
	Threads    int // thread count of the owning process
	LastCore   int
	Occupancy  int
	Symbiosis  []int32
	Overlap    []int32
	HasSig     bool
	L2MissRate float64 // performance-counter proxy, for baseline policies
	L2Misses   uint64
}

// Snapshot builds monitor views for all threads.
func Snapshot(procs []*Process) []View {
	return SnapshotInto(nil, procs)
}

// SnapshotInto fills buf with monitor views for all threads, reusing buf's
// backing array and each view's symbiosis/overlap slices when their
// capacities allow; buf may be nil, in which case it behaves like Snapshot.
// The returned views alias buf and are overwritten by the next call. Lazily
// captured signatures are materialized here — the snapshot is the "first
// read" the lazy capture defers to. The periodic monitor uses a Snapshotter
// instead, which backs all views with two flat matrices.
func SnapshotInto(buf []View, procs []*Process) []View {
	n := 0
	for _, p := range procs {
		n += len(p.Threads)
	}
	if cap(buf) < n {
		buf = make([]View, n)
	}
	buf = buf[:n]
	i := 0
	for _, p := range procs {
		for _, t := range p.Threads {
			v := &buf[i]
			sym, ov := v.Symbiosis[:0], v.Overlap[:0]
			*v = View{
				ThreadID:   t.ID,
				ProcID:     p.ID,
				Name:       p.Name,
				Threads:    len(p.Threads),
				LastCore:   t.Affinity,
				L2MissRate: t.L2MissRate(),
				L2Misses:   t.L2Misses,
			}
			if t.Sig != nil {
				sig := t.Sig.Materialize()
				v.HasSig = true
				v.LastCore = sig.LastCore
				v.Occupancy = sig.Occupancy
				for _, x := range sig.Symbiosis {
					sym = append(sym, int32(x))
				}
				for _, x := range sig.Overlap {
					ov = append(ov, int32(x))
				}
				v.Symbiosis, v.Overlap = sym, ov
			}
			i++
		}
	}
	return buf
}

// Snapshotter is the struct-of-arrays snapshot path for the periodic
// monitor: all views' symbiosis vectors live in one flat P×N int32 matrix
// (and overlaps in a second), with each view's slices aliasing its row. One
// snapshot performs zero allocations in the steady state — the matrices and
// the view slice are reused whenever P×N has not grown — where the per-view
// append path churns P slice headers' worth of bookkeeping per period. The
// returned views are overwritten by the next Snapshot call.
type Snapshotter struct {
	views   []View
	sym, ov []int32 // flat P×N row-major backing matrices
	// small counts consecutive snapshots that needed less than a quarter of
	// the backing capacity. Capacity only ever grew before thread churn
	// existed; under an open arrival/departure workload a population burst
	// would otherwise pin its peak P×N footprint forever. After
	// snapShrinkAfter consecutive small snapshots the backing is reallocated
	// at the current need — hysteresis, so a population oscillating around a
	// boundary does not realloc every period.
	small int
}

// snapShrinkAfter is how many consecutive under-quarter-capacity snapshots
// trigger a backing-store shrink.
const snapShrinkAfter = 16

// Snapshot fills the Snapshotter's backing store with monitor views for all
// threads and returns them. Lazily captured signatures are materialized.
func (s *Snapshotter) Snapshot(procs []*Process) []View {
	p, n := 0, 0
	for _, pr := range procs {
		p += len(pr.Threads)
		for _, t := range pr.Threads {
			if t.Sig != nil && len(t.Sig.Symbiosis) > n {
				n = len(t.Sig.Symbiosis)
			}
		}
	}
	if cap(s.views) > 4*p || cap(s.sym) > 4*p*n {
		if s.small++; s.small >= snapShrinkAfter {
			s.views = make([]View, p)
			s.sym = make([]int32, p*n)
			s.ov = make([]int32, p*n)
			s.small = 0
		}
	} else {
		s.small = 0
	}
	if cap(s.views) < p {
		s.views = make([]View, p)
	}
	if cap(s.sym) < p*n {
		s.sym = make([]int32, p*n)
		s.ov = make([]int32, p*n)
	}
	s.views, s.sym, s.ov = s.views[:p], s.sym[:p*n], s.ov[:p*n]
	i := 0
	for _, pr := range procs {
		for _, t := range pr.Threads {
			v := &s.views[i]
			*v = View{
				ThreadID:   t.ID,
				ProcID:     pr.ID,
				Name:       pr.Name,
				Threads:    len(pr.Threads),
				LastCore:   t.Affinity,
				L2MissRate: t.L2MissRate(),
				L2Misses:   t.L2Misses,
			}
			if t.Sig != nil {
				sig := t.Sig.Materialize()
				v.HasSig = true
				v.LastCore = sig.LastCore
				v.Occupancy = sig.Occupancy
				row := i * n
				sym := s.sym[row : row+len(sig.Symbiosis) : row+n]
				ov := s.ov[row : row+len(sig.Overlap) : row+n]
				for j, x := range sig.Symbiosis {
					sym[j] = int32(x)
				}
				for j, x := range sig.Overlap {
					ov[j] = int32(x)
				}
				v.Symbiosis, v.Overlap = sym, ov
			}
			i++
		}
	}
	return s.views
}
