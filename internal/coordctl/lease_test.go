package coordctl

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// scanEntry and scanTable are the reference lease table: the linear-scan
// state machine the counted table replaced, kept verbatim except that its
// lease ids carry the campaign prefix the server used to add. Every query
// scans every entry, so it holds no summary that could go stale.
type scanEntry struct {
	index    int
	state    shardState
	leaseID  string
	worker   string
	attempts int
	leasedAt time.Time
	deadline time.Time
	elapsed  float64
	lastErr  string
}

type scanTable struct {
	entries     []scanEntry
	campaign    string
	timeout     time.Duration
	maxAttempts int
	seq         int
}

func newScanTable(campaign string, shards int, timeout time.Duration, maxAttempts int) *scanTable {
	t := &scanTable{entries: make([]scanEntry, shards), campaign: campaign, timeout: timeout, maxAttempts: maxAttempts}
	for i := range t.entries {
		t.entries[i].index = i
	}
	return t
}

func (t *scanTable) expire(now time.Time) (requeued, failed []int) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.state != stateLeased || now.Before(e.deadline) {
			continue
		}
		e.lastErr = fmt.Sprintf("lease %s to %s expired after %v (attempt %d)", e.leaseID, e.worker, t.timeout, e.attempts)
		e.leaseID = ""
		if e.attempts >= t.maxAttempts {
			e.state = stateFailed
			failed = append(failed, i)
		} else {
			e.state = statePending
			requeued = append(requeued, i)
		}
	}
	return requeued, failed
}

func (t *scanTable) lease(worker string, now time.Time) *scanEntry {
	for i := range t.entries {
		e := &t.entries[i]
		if e.state != statePending {
			continue
		}
		t.seq++
		e.state = stateLeased
		e.leaseID = fmt.Sprintf("lease-%d", t.seq)
		e.leaseID = fmt.Sprintf("%s-%s", t.campaign, e.leaseID)
		e.worker = worker
		e.attempts++
		e.leasedAt = now
		e.deadline = now.Add(t.timeout)
		return e
	}
	return nil
}

func (t *scanTable) accept(e *scanEntry, worker string, elapsed float64) {
	e.state = stateDone
	e.leaseID = ""
	e.worker = worker
	e.elapsed = elapsed
	e.lastErr = ""
}

func (t *scanTable) markDone(index int, worker string, attempt int, elapsed float64) {
	e := &t.entries[index]
	if attempt > e.attempts {
		e.attempts = attempt
	}
	t.accept(e, worker, elapsed)
}

func (t *scanTable) reject(e *scanEntry, reason string) {
	e.lastErr = reason
	e.leaseID = ""
	if e.attempts >= t.maxAttempts {
		e.state = stateFailed
	} else {
		e.state = statePending
	}
}

func (t *scanTable) cancel() (released int) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.state == stateLeased {
			e.state = statePending
			e.leaseID = ""
			released++
		}
	}
	return released
}

func (t *scanTable) allDone() bool {
	for i := range t.entries {
		if t.entries[i].state != stateDone {
			return false
		}
	}
	return true
}

func (t *scanTable) firstFailed() *scanEntry {
	for i := range t.entries {
		if t.entries[i].state == stateFailed {
			return &t.entries[i]
		}
	}
	return nil
}

// asScan copies a table entry into the reference's entry type.
func asScan(e *shardEntry) *scanEntry {
	if e == nil {
		return nil
	}
	return &scanEntry{e.index, e.state, e.leaseID, e.worker, e.attempts, e.leasedAt, e.deadline, e.elapsed, e.lastErr}
}

// TestLeaseTableMatchesScan drives the counted lease table and the
// linear-scan reference through the same seeded random steps — lease,
// expire, reject, accept, journal-replay markDone and cancel — on tables
// of 1–40 shards with 1–3 attempts, under a fake clock that jumps forward
// and back. After every step the two must agree on every entry and every
// answer, and the table's summaries must hold: its counts equal a scan, no
// pending entry sits below its cursor, and no leased deadline is before
// its bound.
func TestLeaseTableMatchesScan(t *testing.T) {
	const timeout = 10 * time.Second
	for seed := int64(1); seed <= 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards, attempts := 1+rng.Intn(40), 1+rng.Intn(3)
		tab := newLeaseTable("c7", shards, timeout, attempts)
		ref := newScanTable("c7", shards, timeout, attempts)
		now := time.Unix(1_000_000, 0)
		// live picks a random entry in a state a submission can reach:
		// pending (its lease expired behind the worker's back) or leased.
		live := func() int {
			var idx []int
			for i := range ref.entries {
				if st := ref.entries[i].state; st == statePending || st == stateLeased {
					idx = append(idx, i)
				}
			}
			if len(idx) == 0 {
				return -1
			}
			return idx[rng.Intn(len(idx))]
		}
		for step := 0; step < 250; step++ {
			// Mostly forward, sometimes back, across deadlines either way.
			now = now.Add(time.Duration(rng.Int63n(int64(3*timeout))) - timeout)
			var op string
			switch k := rng.Intn(100); {
			case k < 40:
				op = "lease"
				worker := fmt.Sprintf("w%d", rng.Intn(3))
				got, want := asScan(tab.lease(worker, now)), ref.lease(worker, now)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: lease granted %+v, reference %+v", seed, step, got, want)
				}
			case k < 70:
				op = "expire"
				r1, f1 := tab.expire(now)
				r2, f2 := ref.expire(now)
				if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(f1, f2) {
					t.Fatalf("seed %d step %d: expire gave %v %v, reference %v %v", seed, step, r1, f1, r2, f2)
				}
			case k < 80:
				op = "reject"
				if i := live(); i >= 0 {
					reason := fmt.Sprintf("bad shard at step %d", step)
					tab.reject(&tab.entries[i], reason)
					ref.reject(&ref.entries[i], reason)
				}
			case k < 92:
				op = "accept"
				if i := live(); i >= 0 {
					tab.accept(&tab.entries[i], "winner", float64(step))
					ref.accept(&ref.entries[i], "winner", float64(step))
				}
			case k < 97:
				op = "markDone"
				if i := live(); i >= 0 {
					attempt := rng.Intn(4)
					tab.markDone(i, "replayed", attempt, 1.5)
					ref.markDone(i, "replayed", attempt, 1.5)
				}
			default:
				op = "cancel"
				if got, want := tab.cancel(), ref.cancel(); got != want {
					t.Fatalf("seed %d step %d: cancel released %d, reference %d", seed, step, got, want)
				}
			}
			if msg := checkLeaseTable(tab, ref); msg != "" {
				t.Fatalf("seed %d step %d (%s): %s", seed, step, op, msg)
			}
		}
	}
}

// checkLeaseTable compares the table with the reference and checks the
// table's summaries against a scan of its own entries. It describes the
// first disagreement, or returns "".
func checkLeaseTable(tab *leaseTable, ref *scanTable) string {
	var counts [numStates]int
	for i := range tab.entries {
		e := &tab.entries[i]
		if got := asScan(e); *got != ref.entries[i] {
			return fmt.Sprintf("entry %d is %+v, reference %+v", i, *got, ref.entries[i])
		}
		counts[e.state]++
		if e.state == statePending && i < tab.next {
			return fmt.Sprintf("entry %d is pending below the cursor %d", i, tab.next)
		}
		if e.state == stateLeased && e.deadline.Before(tab.earliest) {
			return fmt.Sprintf("entry %d's deadline %v is before the bound %v", i, e.deadline, tab.earliest)
		}
	}
	if counts != tab.counts {
		return fmt.Sprintf("counts %v, scan %v", tab.counts, counts)
	}
	if tab.allDone() != ref.allDone() {
		return fmt.Sprintf("allDone %v, reference %v", tab.allDone(), ref.allDone())
	}
	if got, want := asScan(tab.firstFailed()), ref.firstFailed(); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("firstFailed %+v, reference %+v", got, want)
	}
	return ""
}
