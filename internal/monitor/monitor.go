// Package monitor implements the user-level monitoring process of §3.2 (and
// its Dom0 twin for VMs): a periodic loop that reads the per-thread
// signature records through the kernel's snapshot interface, runs an
// allocation policy, applies the resulting mapping through affinity bits,
// and keeps the per-invocation vote tally that §4.1's majority rule reduces
// to a single chosen schedule.
package monitor

import (
	"sort"

	"symbiosched/internal/alloc"
	"symbiosched/internal/engine"
	"symbiosched/internal/kernel"
)

// Monitor is one policy-driven allocation loop.
type Monitor struct {
	Policy alloc.Policy
	// Apply controls whether each decision is installed via SetAffinities
	// (the live system) or only recorded (pure observation).
	Apply bool
	// Smoothing is the exponential-moving-average factor applied to the
	// occupancy and symbiosis readings across invocations, in [0,1): 0
	// disables smoothing (raw last-quantum values). Per-quantum signatures
	// are noisy — a streaming application's RBV depends on where in its
	// sweep the snapshot lands — and the paper's majority vote benefits
	// from a stable estimate. Default 0.5.
	Smoothing float64

	votes       map[string]int
	sample      map[string]alloc.Mapping
	invocations int
	// smoothed is indexed by ThreadID — the kernel guarantees dense global
	// IDs, so a slice beats a map at the thousands-of-threads scale the
	// sparse allocator path targets. Entries are nil until first profiled.
	// Under churn thread IDs are reused, so smooth drops the entry of any
	// thread absent from the current snapshot (a reused ID must not inherit
	// the departed thread's averages) and trims the slice when the
	// population shrinks; seen is the alloc-free scratch marking which IDs
	// appeared this invocation.
	smoothed []*smoothState
	seen     []bool

	// snap owns the struct-of-arrays view backing (the monitor re-reads the
	// same thread set every period, so the flat matrices stabilise after the
	// first invocation); scratch backs ScratchPolicy invocations the same
	// way; lastMapping/lastKey memoise the vote key of the previous
	// decision — policies are usually stable between periods, so the common
	// case records a vote without re-rendering the key. Together these make
	// the steady-state invocation (snapshot + smooth + allocate + record)
	// allocation-free; see TestMonitorSteadyStateAllocs.
	snap        kernel.Snapshotter
	scratch     *alloc.Scratch
	lastMapping alloc.Mapping
	lastKey     string
}

type smoothState struct {
	occupancy float64
	symbiosis []float64
	overlap   []float64
}

// New returns a monitor running the given policy that applies its decisions.
func New(p alloc.Policy) *Monitor {
	return NewWithScratch(p, new(alloc.Scratch))
}

// NewWithScratch is New with the policy's scratch supplied by the caller, so
// a caller that runs many short-lived monitors one after another (a sweep
// worker's phase-1 runs) warms one scratch instead of one per monitor. The
// scratch must not serve two monitors at once.
func NewWithScratch(p alloc.Policy, s *alloc.Scratch) *Monitor {
	return &Monitor{
		Policy:    p,
		Apply:     true,
		Smoothing: 0.5,
		votes:     map[string]int{},
		sample:    map[string]alloc.Mapping{},
		scratch:   s,
	}
}

// Hook returns the engine monitor callback: invoke the policy on the current
// (smoothed) snapshot, record the vote, and (if Apply) install the mapping.
func (mo *Monitor) Hook() func(m *engine.Machine, now uint64) {
	return func(m *engine.Machine, now uint64) {
		mapping := mo.Observe(m.Processes(), m.Cores())
		if mo.Apply {
			m.SetAffinities(mapping)
		}
	}
}

// Observe performs one monitor invocation against a process set directly:
// snapshot the signature records (materializing lazy captures), fold the
// readings into the moving averages, run the policy, and record the vote.
// It returns the decided mapping, which the caller may install; the engine
// hook does, the -sig benchmark only times it. The returned mapping may
// alias the monitor's scratch and is overwritten by the next invocation.
func (mo *Monitor) Observe(procs []*kernel.Process, cores int) alloc.Mapping {
	views := mo.snap.Snapshot(procs)
	views = mo.smooth(views)
	var mapping alloc.Mapping
	if sp, ok := mo.Policy.(alloc.ScratchPolicy); ok {
		mapping = sp.AllocateScratch(views, cores, mo.scratch)
	} else {
		mapping = mo.Policy.Allocate(views, cores)
	}
	mo.record(mapping)
	return mapping
}

// smooth folds the new readings into the per-thread moving averages and
// returns views carrying the smoothed values.
func (mo *Monitor) smooth(views []kernel.View) []kernel.View {
	a := mo.Smoothing
	if a <= 0 || a >= 1 {
		return views
	}
	if n := len(mo.smoothed); cap(mo.seen) < n {
		mo.seen = make([]bool, n)
	} else {
		mo.seen = mo.seen[:n]
		for i := range mo.seen {
			mo.seen[i] = false
		}
	}
	for i := range views {
		v := &views[i]
		if v.ThreadID >= 0 && v.ThreadID < len(mo.seen) {
			mo.seen[v.ThreadID] = true
		}
		if !v.HasSig {
			continue
		}
		for v.ThreadID >= len(mo.smoothed) {
			mo.smoothed = append(mo.smoothed, nil)
			mo.seen = append(mo.seen, true)
		}
		st := mo.smoothed[v.ThreadID]
		if st == nil || len(st.symbiosis) != len(v.Symbiosis) || len(st.overlap) != len(v.Overlap) {
			st = &smoothState{occupancy: float64(v.Occupancy)}
			st.symbiosis = make([]float64, len(v.Symbiosis))
			for j, s := range v.Symbiosis {
				st.symbiosis[j] = float64(s)
			}
			st.overlap = make([]float64, len(v.Overlap))
			for j, o := range v.Overlap {
				st.overlap[j] = float64(o)
			}
			mo.smoothed[v.ThreadID] = st
		} else {
			st.occupancy = a*st.occupancy + (1-a)*float64(v.Occupancy)
			for j, s := range v.Symbiosis {
				st.symbiosis[j] = a*st.symbiosis[j] + (1-a)*float64(s)
			}
			for j, o := range v.Overlap {
				st.overlap[j] = a*st.overlap[j] + (1-a)*float64(o)
			}
		}
		v.Occupancy = int(st.occupancy + 0.5)
		for j := range v.Symbiosis {
			v.Symbiosis[j] = int32(st.symbiosis[j] + 0.5)
		}
		for j := range v.Overlap {
			v.Overlap[j] = int32(st.overlap[j] + 0.5)
		}
	}
	// Drop state for threads absent from this snapshot — they departed, and
	// the kernel reuses their IDs — then trim trailing slots so the state
	// tracks the live population as it shrinks and grows.
	for id, st := range mo.smoothed {
		if st != nil && !mo.seen[id] {
			mo.smoothed[id] = nil
		}
	}
	n := len(mo.smoothed)
	for n > 0 && mo.smoothed[n-1] == nil {
		n--
	}
	mo.smoothed = mo.smoothed[:n]
	return views
}

// Forget discards the smoothing state of one thread ID immediately. Callers
// that observe a departure out of band (before the next snapshot would age
// the slot out naturally) use this to keep a reused ID from inheriting the
// departed thread's averages within the same quantum.
func (mo *Monitor) Forget(threadID int) {
	if threadID >= 0 && threadID < len(mo.smoothed) {
		mo.smoothed[threadID] = nil
	}
}

func (mo *Monitor) record(mapping alloc.Mapping) {
	mo.invocations++
	key := mo.lastKey
	if mo.invocations == 1 || !mapping.Equal(mo.lastMapping) {
		key = mapping.Key()
		mo.lastMapping = append(mo.lastMapping[:0], mapping...)
		mo.lastKey = key
	}
	mo.votes[key]++
	if _, ok := mo.sample[key]; !ok {
		mo.sample[key] = mapping.Canonical()
	}
}

// Invocations returns how many times the policy ran.
func (mo *Monitor) Invocations() int { return mo.invocations }

// Majority returns the mapping chosen most often across invocations — the
// §4.1 rule ("the allocation picked by the simulated allocator the majority
// of the times is considered the chosen schedule"). Ties break toward the
// lexicographically smallest key for determinism. Returns nil if the policy
// never ran.
func (mo *Monitor) Majority() alloc.Mapping {
	if mo.invocations == 0 {
		return nil
	}
	keys := make([]string, 0, len(mo.votes))
	for k := range mo.votes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := keys[0]
	for _, k := range keys[1:] {
		if mo.votes[k] > mo.votes[best] {
			best = k
		}
	}
	return mo.sample[best]
}

// Votes returns a copy of the vote tally keyed by canonical mapping string.
func (mo *Monitor) Votes() map[string]int {
	out := make(map[string]int, len(mo.votes))
	for k, v := range mo.votes {
		out[k] = v
	}
	return out
}
