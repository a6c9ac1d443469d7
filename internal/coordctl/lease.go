package coordctl

import (
	"fmt"
	"strconv"
	"time"
)

// shardState is the per-shard state machine the coordinator drives:
//
//	pending ──lease──▶ leased ──valid submit──▶ done
//	   ▲                  │
//	   └──expiry/reject───┴──attempts exhausted──▶ failed
//
// done is terminal (first valid result wins); failed is terminal and fails
// the campaign.
type shardState int

const (
	statePending shardState = iota
	stateLeased
	stateDone
	stateFailed
	numStates
)

// statesByName lists the states in the order of their names, the order
// /metrics prints them in.
var statesByName = [numStates]shardState{stateDone, stateFailed, stateLeased, statePending}

func (s shardState) String() string {
	switch s {
	case statePending:
		return "pending"
	case stateLeased:
		return "leased"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	}
	return fmt.Sprintf("shardState(%d)", int(s))
}

// shardEntry is one shard's bookkeeping. attempts counts lease grants, so
// a re-dispatch after an expired lease or a rejected submission raises it.
type shardEntry struct {
	index    int
	state    shardState
	leaseID  string
	worker   string
	attempts int
	leasedAt time.Time
	deadline time.Time
	// elapsed is the accepted shard's own simulation wall time.
	elapsed float64
	lastErr string
}

// leaseTable owns the shard entries and is the only writer of their state.
// It is not locked — the server serializes access under its own mutex.
//
// Besides the entries it keeps three summaries, so that a lease or submit
// costs the same whatever the shard count: a count per state, a cursor
// below which no entry is pending, and a lower bound on the earliest
// leased deadline. expire scans the entries only once that bound has
// passed, and then tightens it to the exact earliest deadline.
type leaseTable struct {
	entries     []shardEntry
	campaign    string // lease ids are <campaign>-lease-<seq>
	timeout     time.Duration
	maxAttempts int
	seq         int

	counts   [numStates]int // entries per state
	next     int            // no entry below next is pending
	earliest time.Time      // no leased deadline is before earliest
}

func newLeaseTable(campaign string, shards int, timeout time.Duration, maxAttempts int) *leaseTable {
	t := &leaseTable{
		entries:     make([]shardEntry, shards),
		campaign:    campaign,
		timeout:     timeout,
		maxAttempts: maxAttempts,
	}
	for i := range t.entries {
		t.entries[i].index = i
	}
	t.counts[statePending] = shards
	return t
}

// setState moves an entry to state s, keeping the counts and the cursor.
func (t *leaseTable) setState(e *shardEntry, s shardState) {
	t.counts[e.state]--
	t.counts[s]++
	e.state = s
	if s == statePending && e.index < t.next {
		t.next = e.index
	}
}

// count returns how many entries are in state s.
func (t *leaseTable) count(s shardState) int { return t.counts[s] }

// expire requeues every leased shard whose deadline has passed — the
// straggler re-dispatch path — failing those that already burned their
// attempt budget. It returns the indices it moved so the server can log.
func (t *leaseTable) expire(now time.Time) (requeued, failed []int) {
	if t.counts[stateLeased] == 0 || now.Before(t.earliest) {
		return nil, nil
	}
	var earliest time.Time
	kept := false
	for i := range t.entries {
		e := &t.entries[i]
		if e.state != stateLeased {
			continue
		}
		if now.Before(e.deadline) {
			if !kept || e.deadline.Before(earliest) {
				earliest, kept = e.deadline, true
			}
			continue
		}
		e.lastErr = fmt.Sprintf("lease %s to %s expired after %v (attempt %d)", e.leaseID, e.worker, t.timeout, e.attempts)
		e.leaseID = ""
		if e.attempts >= t.maxAttempts {
			t.setState(e, stateFailed)
			failed = append(failed, i)
		} else {
			t.setState(e, statePending)
			requeued = append(requeued, i)
		}
	}
	t.earliest = earliest
	return requeued, failed
}

// lease grants the lowest-indexed pending shard to the worker, or returns
// nil when nothing is leasable right now.
func (t *leaseTable) lease(worker string, now time.Time) *shardEntry {
	if t.counts[statePending] == 0 {
		return nil
	}
	for i := t.next; i < len(t.entries); i++ {
		e := &t.entries[i]
		if e.state != statePending {
			continue
		}
		t.next = i + 1
		t.seq++
		e.leaseID = t.campaign + "-lease-" + strconv.Itoa(t.seq)
		e.worker = worker
		e.attempts++
		e.leasedAt = now
		e.deadline = now.Add(t.timeout)
		if t.counts[stateLeased] == 0 || e.deadline.Before(t.earliest) {
			t.earliest = e.deadline
		}
		t.setState(e, stateLeased)
		return e
	}
	return nil
}

// accept moves a shard whose result was validated and merged to done; its
// lease is spent.
func (t *leaseTable) accept(e *shardEntry, worker string, elapsed float64) {
	t.setState(e, stateDone)
	e.leaseID = ""
	e.worker = worker
	e.elapsed = elapsed
	e.lastErr = ""
}

// markDone moves a shard straight to done — the journal-replay path, where
// the accepted result (with its provenance) is already durable and must not
// be re-leased or recomputed.
func (t *leaseTable) markDone(index int, worker string, attempt int, elapsed float64) {
	e := t.byIndex(index)
	if e == nil {
		return
	}
	if attempt > e.attempts {
		e.attempts = attempt
	}
	t.accept(e, worker, elapsed)
}

// byIndex returns the entry for a shard index, or nil when out of range.
func (t *leaseTable) byIndex(i int) *shardEntry {
	if i < 0 || i >= len(t.entries) {
		return nil
	}
	return &t.entries[i]
}

// reject sends a shard whose submission failed validation back through the
// state machine: pending for another try, or failed once the attempt
// budget is gone.
func (t *leaseTable) reject(e *shardEntry, reason string) {
	e.lastErr = reason
	e.leaseID = ""
	if e.attempts >= t.maxAttempts {
		t.setState(e, stateFailed)
	} else {
		t.setState(e, statePending)
	}
}

// cancel returns every leased shard to pending — a cancelled campaign
// releases its leases — and reports how many it released.
func (t *leaseTable) cancel() (released int) {
	if t.counts[stateLeased] == 0 {
		return 0
	}
	for i := range t.entries {
		e := &t.entries[i]
		if e.state == stateLeased {
			t.setState(e, statePending)
			e.leaseID = ""
			released++
		}
	}
	return released
}

// allDone reports whether every shard has an accepted result.
func (t *leaseTable) allDone() bool { return t.counts[stateDone] == len(t.entries) }

// firstFailed returns the lowest-indexed failed entry, or nil.
func (t *leaseTable) firstFailed() *shardEntry {
	if t.counts[stateFailed] == 0 {
		return nil
	}
	for i := range t.entries {
		if t.entries[i].state == stateFailed {
			return &t.entries[i]
		}
	}
	return nil
}
