package main

import (
	"fmt"

	"symbiosched/internal/alloc"
	"symbiosched/internal/bloom"
	"symbiosched/internal/kernel"
	"symbiosched/internal/monitor"
)

// The signature layer: what one context switch costs the signature unit, and
// what one full monitor quantum costs the control loop, as the thread count
// P and core count N grow. A switch snapshots the RBV and takes
// filter-version references, O(words + N); the symbiosis vectors
// materialize on the first read (here: inside the monitor quantum) and are
// memoized. internal/bloom's TestLazyCaptureParityPaperGeometry replays this
// schedule against an eager oracle. The monitor quantum — snapshot
// (including materialization), smoothing, allocation — is measured with
// fresh captures before every sample, the way a live control loop pays it.
//
// Per cell, the switch point records one switch (a timed batch divided by
// its switches; its checksum hashes every thread's materialized record) and
// the monitor point one quantum (its checksum hashes the mapping decision).

// sigGrid is the (threads, cores) sweep; geometry is the paper's 4 MB
// 16-way L2 (4096 sets) with the default 1/4 set sampling.
var sigGrid = [][2]int{{8, 2}, {32, 4}, {64, 8}, {256, 16}, {1024, 64}}

// sigBench holds the replay state of one sample.
type sigBench struct {
	unit *bloom.Unit
	sigs []*bloom.Signature
	rng  uint64
	hist []fillRecord // ring of past fills, evicted in FIFO order
	pos  int
}

type fillRecord struct {
	addr     uint64
	set, way int
}

func newSigBench(p, n int) *sigBench {
	cfg := bloom.DefaultConfig(bloom.Geometry{Sets: 4096, Ways: 16}, n)
	cfg.CounterBits = 8
	cfg.SampleRate = 4
	return &sigBench{
		unit: bloom.NewUnit(cfg),
		sigs: make([]*bloom.Signature, p),
		rng:  0x9E3779B97F4A7C15,
		hist: make([]fillRecord, 0, 4096),
	}
}

// mutate applies one switch's worth of cache traffic for core: two fills and,
// once the history ring is warm, one eviction of the oldest resident line.
func (b *sigBench) mutate(core int) {
	for f := 0; f < 2; f++ {
		b.rng = b.rng*6364136223846793005 + 1442695040888963407
		r := b.rng >> 16
		rec := fillRecord{addr: r, set: int(r % 4096), way: int((r >> 12) % 16)}
		b.unit.OnFill(core, rec.addr, rec.set, rec.way)
		if len(b.hist) < cap(b.hist) {
			b.hist = append(b.hist, rec)
		} else {
			old := b.hist[b.pos]
			b.unit.OnEvict(old.addr, old.set, old.way)
			b.hist[b.pos] = rec
			b.pos = (b.pos + 1) % len(b.hist)
		}
	}
}

// run replays iters mutate+switch steps. The schedule is a pure function of
// the LCG state.
func (b *sigBench) run(n, iters int) {
	for i := 0; i < iters; i++ {
		th := i % len(b.sigs)
		core := th % n
		b.mutate(core)
		b.sigs[th] = b.unit.ContextSwitchInto(core, b.sigs[th])
	}
}

// checksum materializes every captured record and hashes its contents.
func (b *sigBench) checksum() string {
	d := newDigest()
	for _, sig := range b.sigs {
		if sig == nil {
			d.put(^uint64(0))
			continue
		}
		sig.Materialize()
		d.put(uint64(sig.LastCore), uint64(sig.Occupancy))
		for j := range sig.Symbiosis {
			d.put(uint64(sig.Symbiosis[j]), uint64(sig.Overlap[j]))
		}
	}
	return d.String()
}

// runSig measures every (P, N) cell of the grid. Every sample starts from a
// fresh unit and replays the identical schedule, with an untimed warm batch
// (steady occupancy, version pools populated) before the timed one.
func runSig(reps int) []Point {
	var pts []Point
	for _, cell := range sigGrid {
		p, n := cell[0], cell[1]
		iters := max(2*p, 512)
		name := fmt.Sprintf("P=%d N=%d", p, n)

		// One switch: a timed batch of iters switches, divided out.
		sw := measure("sig", "switch "+name, reps, func() (func(), func() string) {
			b := newSigBench(p, n)
			b.run(n, iters)
			return func() { b.run(n, iters) }, b.checksum
		})
		per := float64(iters)
		sw.MinMicros, sw.P50Micros, sw.P99Micros = sw.MinMicros/per, sw.P50Micros/per, sw.P99Micros/per
		sw.Info = map[string]float64{"switches": per}

		pts = append(pts, sw, measure("sig", "monitor "+name, reps, func() (func(), func() string) {
			b := newSigBench(p, n)
			b.run(n, iters) // the switch samples' warm + timed schedule
			b.run(n, iters)
			procs := make([]*kernel.Process, p)
			for i := range procs {
				procs[i] = &kernel.Process{ID: i, Name: fmt.Sprintf("t%d", i)}
				procs[i].Threads = []*kernel.Thread{{ID: i, Proc: procs[i], Affinity: i % n, Sig: b.sigs[i]}}
			}
			mo := monitor.New(alloc.WeightedInterferenceGraph{})
			mo.Smoothing = 0.5
			var m alloc.Mapping
			return func() { m = mo.Observe(procs, n) }, func() string { return mappingChecksum(m) }
		}))
	}
	return pts
}
