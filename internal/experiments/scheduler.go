package experiments

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the sweep-wide task scheduler that replaced the
// nested worker pools (an outer pool over mixes in Sweep, an inner pool over
// candidate mappings inside RunMix — which oversubscribed the machine with
// up to workers² goroutines and serialised every mix behind its slowest
// candidate). All simulation work is now expressed as a flat task graph —
// one phase-1 task per mix that, on completion, spawns one independent
// phase-2 task per candidate mapping, and one root task per run for jobs
// with no phase 1 (standalone and pairwise runs) — executed by a single
// bounded work-stealing pool: per-worker deques, LIFO owner pop (cache-warm,
// depth-first into the freshly spawned candidates of the mix the worker just
// profiled, which also keeps its simulation arena hot), FIFO steal (oldest
// task, the widest remaining subtree). Determinism is by construction, not
// by scheduling: every task writes into a pre-assigned slot of the outcome
// arrays, so the result is bit-identical for any worker count and any
// steal interleaving.

// TaskKind labels the two node types of the sweep task graph.
type TaskKind int

const (
	// TaskPhase1 is a signature-gathering run (§4.1) for one mix; it spawns
	// the mix's candidate tasks when it completes.
	TaskPhase1 TaskKind = iota
	// TaskCandidate is one run-to-completion of a mix under one candidate
	// mapping: a phase-2 run, or a run of a job with no phase 1 (the
	// standalone and pairwise baselines).
	TaskCandidate
)

// String returns the kind's short name.
func (k TaskKind) String() string {
	if k == TaskPhase1 {
		return "phase1"
	}
	return "candidate"
}

// TaskInfo describes one completed scheduler task; it is delivered to the
// Config.OnTask callback for progress reporting and utilization analysis.
// The callback runs synchronously on the worker that executed the task and
// may be invoked concurrently from different workers — it must be safe for
// concurrent use.
type TaskInfo struct {
	Kind      TaskKind
	Mix       int  // job index within the sweep (combo index for Sweep)
	Candidate int  // candidate index within the mix; -1 for phase-1 tasks
	Worker    int  // worker that executed the task
	Stolen    bool // true if the task was stolen from another worker's deque
	Duration  time.Duration
}

// wsTask is one schedulable unit. run receives the executing worker's id
// (to address its arena and deque) so tasks it spawns land on the worker's
// own deque.
type wsTask struct {
	run       func(p *wsPool, worker int)
	kind      TaskKind
	mix       int
	candidate int
}

// wsWorker is one worker's deque. A mutex-protected slice is deliberate:
// tasks here are whole cache simulations (milliseconds to seconds), so the
// deque is touched thousands of times per second at most and a lock-free
// Chase-Lev deque would buy nothing measurable.
type wsWorker struct {
	mu    sync.Mutex
	deque []wsTask // push/pop at the back (owner), steal at the front
}

// wsPool is the flat work-stealing pool.
type wsPool struct {
	workers []wsWorker
	pending atomic.Int64 // tasks pushed but not yet finished
	onTask  func(TaskInfo)

	// Sleep protocol: a worker that finds every deque empty re-checks under
	// mu against the push version counter and only then waits, so a push
	// between its scan and its wait cannot be lost (the push bumps version
	// under the same mutex before signalling).
	mu      sync.Mutex
	cond    *sync.Cond
	version uint64

	// Counters for the observability surface (read after run() returns).
	steals   atomic.Int64
	executed atomic.Int64
}

func newWSPool(workers int, onTask func(TaskInfo)) *wsPool {
	if workers < 1 {
		workers = 1
	}
	p := &wsPool{workers: make([]wsWorker, workers), onTask: onTask}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// push makes t runnable on worker w's deque. The pending increment happens
// before the task is visible to any thief, and — because spawning tasks push
// before their own finish decrement — pending can only reach zero when the
// whole graph, including every transitively spawned task, has executed.
func (p *wsPool) push(w int, t wsTask) {
	p.pending.Add(1)
	wk := &p.workers[w]
	wk.mu.Lock()
	wk.deque = append(wk.deque, t)
	wk.mu.Unlock()
	p.mu.Lock()
	p.version++
	p.cond.Signal()
	p.mu.Unlock()
}

// popOwn takes the newest task from w's own deque (LIFO).
func (p *wsPool) popOwn(w int) (wsTask, bool) {
	wk := &p.workers[w]
	wk.mu.Lock()
	n := len(wk.deque)
	if n == 0 {
		wk.mu.Unlock()
		return wsTask{}, false
	}
	t := wk.deque[n-1]
	wk.deque[n-1] = wsTask{}
	wk.deque = wk.deque[:n-1]
	wk.mu.Unlock()
	return t, true
}

// steal takes the oldest task from some other worker's deque (FIFO),
// scanning from w+1 so thieves spread over victims.
func (p *wsPool) steal(w int) (wsTask, bool) {
	n := len(p.workers)
	for i := 1; i < n; i++ {
		wk := &p.workers[(w+i)%n]
		wk.mu.Lock()
		if len(wk.deque) > 0 {
			t := wk.deque[0]
			copy(wk.deque, wk.deque[1:])
			wk.deque[len(wk.deque)-1] = wsTask{}
			wk.deque = wk.deque[:len(wk.deque)-1]
			wk.mu.Unlock()
			return t, true
		}
		wk.mu.Unlock()
	}
	return wsTask{}, false
}

// next returns the next task for worker w, blocking until one is available
// or the pool drains. The double scan around the version read closes the
// race between an empty scan and a concurrent push.
func (p *wsPool) next(w int) (t wsTask, stolen, ok bool) {
	for {
		if t, ok := p.popOwn(w); ok {
			return t, false, true
		}
		if t, ok := p.steal(w); ok {
			return t, true, true
		}
		p.mu.Lock()
		v := p.version
		p.mu.Unlock()
		if p.pending.Load() == 0 {
			return wsTask{}, false, false
		}
		// A task may have been pushed between the scans and the version
		// read; rescan before committing to sleep.
		if t, ok := p.popOwn(w); ok {
			return t, false, true
		}
		if t, ok := p.steal(w); ok {
			return t, true, true
		}
		p.mu.Lock()
		if p.version == v && p.pending.Load() != 0 {
			p.cond.Wait()
		}
		p.mu.Unlock()
	}
}

// finish retires one task; the last retirement wakes every sleeping worker
// so they can observe the drained pool and exit. The lock around Broadcast
// orders it after any concurrent waiter's pending check.
func (p *wsPool) finish() {
	if p.pending.Add(-1) == 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// run executes the graph seeded by roots (distributed round-robin across the
// deques) and blocks until every task — including tasks spawned by tasks —
// has finished. Worker 0 runs on the calling goroutine.
func (p *wsPool) run(roots []wsTask) {
	for i, t := range roots {
		p.push(i%len(p.workers), t)
	}
	var wg sync.WaitGroup
	for w := 1; w < len(p.workers); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.work(w)
		}(w)
	}
	p.work(0)
	wg.Wait()
}

// work is one worker's scheduling loop.
func (p *wsPool) work(w int) {
	for {
		t, stolen, ok := p.next(w)
		if !ok {
			return
		}
		start := time.Now()
		t.run(p, w)
		if stolen {
			p.steals.Add(1)
		}
		p.executed.Add(1)
		if p.onTask != nil {
			p.onTask(TaskInfo{
				Kind:      t.kind,
				Mix:       t.mix,
				Candidate: t.candidate,
				Worker:    w,
				Stolen:    stolen,
				Duration:  time.Since(start),
			})
		}
		p.finish()
	}
}
