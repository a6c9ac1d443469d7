package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/bloom"
	"symbiosched/internal/kernel"
	"symbiosched/internal/monitor"
)

// The signature-path microbenchmark: what one context switch costs the
// signature unit, and what one full monitor quantum costs the control loop,
// as the thread count P and core count N grow. A switch snapshots the RBV and
// takes filter-version references, O(words + N); the symbiosis vectors
// materialize on the first read (here: inside the monitor quantum) and are
// memoized. internal/bloom's TestLazyCaptureParityPaperGeometry replays this
// schedule against an eager oracle. The monitor quantum — snapshot
// (including materialization), smoothing, allocation — is measured with
// fresh captures before every invocation, the way a live control loop pays
// it.
//
// Latencies are p50 over -sigreps samples; the checksums (FNV of the
// materialized records and of the monitor's mapping decision) are
// determinism gates exactly like the sweep's improvement percentages.

// sigGrid is the (threads, cores) sweep; geometry is the paper's 4 MB
// 16-way L2 (4096 sets) with the default 1/4 set sampling.
var sigGrid = [][2]int{{8, 2}, {32, 4}, {64, 8}, {256, 16}, {1024, 64}}

// SigPoint is one (P, N) cell of the signature benchmark.
type SigPoint struct {
	P        int `json:"p"`        // threads
	N        int `json:"n"`        // cores
	Switches int `json:"switches"` // timed switches per sample
	// Per-switch capture cost, p50 over samples.
	LazyNsPerSwitch float64 `json:"lazy_ns_per_switch"`
	// Full monitor quantum on the lazy unit: snapshot + smooth + allocate.
	// Min is the gated statistic (robust to ambient load, like the sweep's
	// min_seconds); p50/p99 show the spread.
	MonitorMinMicros float64 `json:"monitor_min_micros"`
	MonitorP50Micros float64 `json:"monitor_p50_micros"`
	MonitorP99Micros float64 `json:"monitor_p99_micros"`
	// SigChecksum hashes every thread's materialized record.
	SigChecksum string `json:"sig_checksum"`
	// Checksum hashes the monitor's final mapping decision.
	Checksum string `json:"checksum"`
}

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

func (b *sigBench) next() uint64 {
	b.rng = b.rng*6364136223846793005 + 1442695040888963407
	return b.rng >> 16
}

// mutate applies one switch's worth of cache traffic for core: two fills and,
// once the history ring is warm, one eviction of the oldest resident line.
func (b *sigBench) mutate(core int) {
	for f := 0; f < 2; f++ {
		r := b.next()
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

// run replays iters mutate+switch steps and returns the wall time of the
// whole batch. The schedule is a pure function of the LCG state.
func (b *sigBench) run(n, iters int) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		th := i % len(b.sigs)
		core := th % n
		b.mutate(core)
		b.sigs[th] = b.unit.ContextSwitchInto(core, b.sigs[th])
	}
	return time.Since(start)
}

// checksum materializes every captured record and hashes its contents.
func (b *sigBench) checksum() string {
	h := fnv.New64a()
	var w [8]byte
	put := func(v uint64) {
		for i := range w {
			w[i] = byte(v >> (8 * i))
		}
		h.Write(w[:])
	}
	for _, sig := range b.sigs {
		if sig == nil {
			put(^uint64(0))
			continue
		}
		sig.Materialize()
		put(uint64(sig.LastCore))
		put(uint64(sig.Occupancy))
		for j := range sig.Symbiosis {
			put(uint64(sig.Symbiosis[j]))
			put(uint64(sig.Overlap[j]))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sampleSwitches runs one sample of the per-switch measurement: a fresh
// unit, an untimed warm batch (steady occupancy, version pools populated), a
// timed batch, and the checksum of the final captured records. Every sample
// replays the IDENTICAL schedule from the identical starting state — the
// timings are repeated samples of one computation and the checksum is
// invariant to -sigreps, matching the allocator benchmark's protocol.
func sampleSwitches(p, n, iters int) (nsPerSwitch float64, sum string) {
	b := newSigBench(p, n)
	b.run(n, iters)
	t := b.run(n, iters)
	return float64(t.Nanoseconds()) / float64(iters), b.checksum()
}

// runSigBench measures every (P, N) point of the grid.
func runSigBench(reps int) []SigPoint {
	var points []SigPoint
	for _, cell := range sigGrid {
		p, n := cell[0], cell[1]
		iters := 2 * p
		if iters < 512 {
			iters = 512
		}

		nsPerSwitch := make([]float64, 0, reps)
		var sigSum string
		for s := 0; s < reps; s++ {
			ns, sum := sampleSwitches(p, n, iters)
			nsPerSwitch = append(nsPerSwitch, ns)
			if s == 0 {
				sigSum = sum
			} else if sum != sigSum {
				fatal(fmt.Errorf("sig P=%d N=%d: sample %d not deterministic", p, n, s))
			}
		}

		pt := SigPoint{P: p, N: n, Switches: iters, SigChecksum: sigSum}
		pt.LazyNsPerSwitch, _ = percentiles(nsPerSwitch)

		pt.MonitorMinMicros, pt.MonitorP50Micros, pt.MonitorP99Micros, pt.Checksum = measureMonitorQuantum(p, n, iters, reps)
		points = append(points, pt)
		fmt.Fprintf(os.Stderr, "sig   P=%-4d N=%-3d: %.0fns per switch, monitor min %.0fµs p50 %.0fµs p99 %.0fµs\n",
			p, n, pt.LazyNsPerSwitch, pt.MonitorMinMicros, pt.MonitorP50Micros, pt.MonitorP99Micros)
	}
	return points
}

// measureMonitorQuantum times the full control-loop step:
// snapshot with deferred materialization, smoothing, allocation. Like the
// switch samples, every invocation rebuilds the identical state — fresh
// unit, fresh captures for all P threads, fresh monitor — so the mapping
// checksum is a pure function of (P, N), invariant to -sigreps.
func measureMonitorQuantum(p, n, iters, reps int) (min, p50, p99 float64, checksum string) {
	procs := make([]*kernel.Process, p)
	for i := range procs {
		pr := &kernel.Process{ID: i, Name: fmt.Sprintf("t%d", i)}
		pr.Threads = []*kernel.Thread{{ID: i, Proc: pr, Affinity: i % n}}
		procs[i] = pr
	}

	var mapping alloc.Mapping
	var sum string
	times := make([]float64, 0, reps)
	for s := 0; s < reps; s++ {
		b := newSigBench(p, n)
		b.run(n, iters) // same warm + capture schedule as the switch samples
		b.run(n, iters)
		for i, pr := range procs {
			pr.Threads[0].Sig = b.sigs[i]
		}
		mo := monitor.New(alloc.WeightedInterferenceGraph{})
		mo.Smoothing = 0.5
		start := time.Now()
		mapping = mo.Observe(procs, n)
		times = append(times, float64(time.Since(start).Nanoseconds())/1e3)
		if cur := mappingChecksum(mapping.Canonical()); s == 0 {
			sum = cur
		} else if cur != sum {
			fatal(fmt.Errorf("sig P=%d N=%d: monitor decision not deterministic", p, n))
		}
	}
	p50, p99 = percentiles(times)
	return times[0], p50, p99, sum // times sorted by percentiles: [0] is min
}

// checkSigPoints is the -check extension for the signature benchmark:
// compare every (P, N) point present in both entries. Both checksums must
// match exactly; the monitor quantum's MINIMUM latency is gated by the
// tolerance when it is large enough to be meaningful (≥1ms) — the quantum
// is measured per invocation with no batch amortization, so its p50 wobbles
// far more than the allocator's on shared hosts, while the min is robust to
// ambient load exactly like the sweep's min_seconds. The per-switch
// nanosecond figures are informational and never latency-gated.
func checkSigPoints(base, cur []SigPoint, tolerance float64) bool {
	type key struct{ p, n int }
	byKey := map[key]SigPoint{}
	for _, pt := range base {
		byKey[key{pt.P, pt.N}] = pt
	}
	ok := true
	matched := 0
	for _, pt := range cur {
		ref, found := byKey[key{pt.P, pt.N}]
		if !found {
			continue
		}
		matched++
		if ref.SigChecksum != pt.SigChecksum || ref.Checksum != pt.Checksum {
			fmt.Fprintf(os.Stderr, "bench: sig P=%d N=%d: determinism checksum mismatch (sig %s/%s vs baseline %s/%s) — the capture or the decision changed, record a new baseline before gating on time\n",
				pt.P, pt.N, pt.SigChecksum, pt.Checksum, ref.SigChecksum, ref.Checksum)
			ok = false
			continue
		}
		if ref.MonitorMinMicros >= 1000 && pt.MonitorMinMicros > ref.MonitorMinMicros*(1+tolerance) {
			fmt.Fprintf(os.Stderr, "bench: sig REGRESSION: P=%d N=%d monitor min %.0fµs vs baseline %.0fµs (%+.1f%%, tolerance %.0f%%)\n",
				pt.P, pt.N, pt.MonitorMinMicros, ref.MonitorMinMicros,
				100*(pt.MonitorMinMicros/ref.MonitorMinMicros-1), 100*tolerance)
			ok = false
		}
	}
	if ok && matched > 0 {
		fmt.Printf("bench: sig ok: %d points, checksums identical\n", matched)
	}
	return ok
}
