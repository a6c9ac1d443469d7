package coordctl

import (
	"testing"
	"time"
)

// TestBackoffSchedule pins the retry schedule: exponential growth from
// Base, hard cap at Max, jitter bounded to ±Jitter, Reset restarting.
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5}
	expect := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second,
	}
	for round := 0; round < 2; round++ {
		for i, nominal := range expect {
			d := b.Next()
			lo := time.Duration(float64(nominal) * 0.5)
			hi := nominal + nominal/2
			if hi > b.Max {
				hi = b.Max
			}
			if d < lo || d > hi {
				t.Fatalf("round %d attempt %d: delay %v outside [%v, %v]", round, i, d, lo, hi)
			}
		}
		b.Reset()
	}
}

// TestBackoffNoJitter checks the deterministic schedule when jitter is
// disabled — the documented exponential shape exactly.
func TestBackoffNoJitter(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: 0}
	// Jitter 0 is in [0,1] and must be respected, not replaced by the
	// default 0.5.
	got := []time.Duration{b.Next(), b.Next(), b.Next(), b.Next(), b.Next()}
	want := []time.Duration{10, 20, 40, 80, 80}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Fatalf("attempt %d: %v, want %v", i, got[i], want[i]*time.Millisecond)
		}
	}
}

// TestBackoffDefaults checks the zero value is usable and stays within its
// documented envelope.
func TestBackoffDefaults(t *testing.T) {
	var b Backoff
	for i := 0; i < 20; i++ {
		d := b.Next()
		if d < 0 || d > 5*time.Second {
			t.Fatalf("attempt %d: delay %v outside (0, 5s]", i, d)
		}
	}
}

// TestLeaseTableExpiry drives the shard state machine with a fake clock:
// expiry requeues while attempts remain, then fails permanently.
func TestLeaseTableExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	tab := newLeaseTable("c1", 2, time.Minute, 2)

	e := tab.lease("w1", now)
	if e == nil || e.index != 0 || e.attempts != 1 {
		t.Fatalf("first lease %+v", e)
	}
	if e2 := tab.lease("w2", now); e2 == nil || e2.index != 1 {
		t.Fatalf("second lease %+v", e2)
	}
	if e3 := tab.lease("w3", now); e3 != nil {
		t.Fatalf("over-lease granted %+v", e3)
	}

	// Not yet expired.
	if r, f := tab.expire(now.Add(30 * time.Second)); len(r)+len(f) != 0 {
		t.Fatalf("premature expiry: %v %v", r, f)
	}
	// Both expire; both have attempts left → requeued, both leases released.
	r, f := tab.expire(now.Add(2 * time.Minute))
	if len(r) != 2 || len(f) != 0 {
		t.Fatalf("expiry requeued %v failed %v", r, f)
	}
	if tab.entries[0].state != statePending || tab.entries[0].leaseID != "" {
		t.Fatalf("requeued entry %+v", tab.entries[0])
	}

	// Second dispatch burns the budget; the next expiry is permanent.
	later := now.Add(3 * time.Minute)
	if e := tab.lease("w1", later); e == nil || e.attempts != 2 {
		t.Fatalf("re-lease %+v", e)
	}
	r, f = tab.expire(later.Add(2 * time.Minute))
	if len(r) != 0 || len(f) != 1 || tab.entries[0].state != stateFailed {
		t.Fatalf("exhausted shard: requeued %v failed %v state %v", r, f, tab.entries[0].state)
	}
	if tab.firstFailed() == nil || tab.allDone() {
		t.Fatal("failure not visible")
	}
}

// TestLeaseTableReject covers the rejected-submission path: back to
// pending with the reason recorded, failed once the budget is gone.
func TestLeaseTableReject(t *testing.T) {
	now := time.Unix(0, 0)
	tab := newLeaseTable("c1", 1, time.Minute, 2)
	e := tab.lease("w", now)
	tab.reject(e, "bad pool hash")
	if e.state != statePending || e.lastErr != "bad pool hash" {
		t.Fatalf("rejected entry %+v", e)
	}
	e = tab.lease("w", now)
	tab.reject(e, "bad pool hash again")
	if e.state != stateFailed {
		t.Fatalf("budget-exhausted rejection left state %v", e.state)
	}
}
