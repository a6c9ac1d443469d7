package main

import (
	"fmt"
	"time"

	"symbiosched/internal/bloom"
	"symbiosched/internal/cache"
	"symbiosched/internal/kernel"
	"symbiosched/internal/workload"
)

// captureEvery is how many accesses the signature pass runs between two
// context-switch captures.
const captureEvery = 4096

// layerPasses times each layer alone on each profile's own reference
// stream: the stream is drawn from the generator, then run through a fresh
// cache hierarchy without and with a signature unit attached, capturing a
// signature every captureEvery accesses on the attached pass. The same runs
// are then drawn again by replaying tracePool, the seeded compiled-trace
// corpus of the generator's output.
func (b *sweepBench) layerPasses(rec *recorder, vals map[string]float64, tracePool []workload.Profile) error {
	ec := b.cfg.EngineConfig()
	refs := b.o.sc.passRefs
	addrs := make([]uint64, refs)
	var detached, attached time.Duration
	var events uint64
	for i, p := range b.pool {
		op := int64(i) + 1
		if err := b.drawStream(rec, "workload.next_run", op, p, addrs); err != nil {
			return err
		}

		h := cache.NewHierarchy(ec.Hierarchy)
		t0 := time.Now()
		for _, a := range addrs {
			h.Access(0, a)
		}
		t1 := time.Now()
		detached += t1.Sub(t0)
		rec.add("cache.access", 0, op, t0, t1)

		h = cache.NewHierarchy(ec.Hierarchy)
		u := bloom.NewUnit(ec.Signature)
		for _, l2 := range h.L2s() {
			l2.SetUnit(u)
		}
		var sig *bloom.Signature
		for lo := 0; lo < refs; lo += captureEvery {
			t0 := time.Now()
			for _, a := range addrs[lo:min(lo+captureEvery, refs)] {
				h.Access(0, a)
			}
			t1 := time.Now()
			attached += t1.Sub(t0)
			rec.add("bloom.attached_access", 0, op, t0, t1)
			sig = u.ContextSwitchInto(0, sig)
			sig.Materialize()
			rec.add("bloom.capture", 0, op, t1, time.Now())
		}
		for _, l2 := range h.L2s() {
			s := l2.Stats()
			events += s.Misses + s.Evictions
		}
	}
	for i, p := range tracePool {
		if err := b.drawStream(rec, "trace.next_run", int64(len(b.pool)+i)+1, p, addrs); err != nil {
			return err
		}
	}
	total := float64(refs * len(b.pool))
	vals["workload.ns_per_ref"] = sum(rec.durations("workload.next_run")) * 1e9 / total
	vals["trace.ns_per_ref"] = sum(rec.durations("trace.next_run")) * 1e9 / float64(refs*max(len(tracePool), 1))
	vals["cache.ns_per_access"] = float64(detached.Nanoseconds()) / total
	vals["bloom.fill_evict_ns"] = float64((attached - detached).Nanoseconds()) / float64(max(events, 1))
	vals["bloom.capture_us_p50"] = median(scaled(rec.durations("bloom.capture"), 1e6))
	return nil
}

// drawStream fills addrs with the memory references of p's thread, as the
// sweep instantiates it, and records the time taken as one span.
func (b *sweepBench) drawStream(rec *recorder, span string, op int64, p workload.Profile, addrs []uint64) error {
	procs := kernel.Workload([]workload.Profile{p}, b.cfg.Seed, b.cfg.Scale())
	src, ok := procs[0].Threads[0].Gen.(workload.RunSource)
	if !ok {
		return fmt.Errorf("%s: instruction source %T has no NextRun", p.Name, procs[0].Threads[0].Gen)
	}
	t0 := time.Now()
	for n := 0; n < len(addrs); {
		if _, addr, mem := src.NextRun(256); mem {
			addrs[n] = addr
			n++
		}
	}
	rec.add(span, 0, op, t0, time.Now())
	return nil
}
