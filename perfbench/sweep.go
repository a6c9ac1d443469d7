package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/experiments"
	"symbiosched/internal/workload"
)

// simWorkers is the sweep's simulation fan-out, fixed so that a run
// measures the same parallelism on any host.
const simWorkers = 2

// mixSize is the paper's four benchmarks per mix.
const mixSize = 4

// sweepBench is fig10-synth: the two-phase sweep over every 4-subset of
// the pool, with synthetic generators, run natively.
type sweepBench struct {
	o    *options
	cfg  experiments.Config
	pool []workload.Profile
}

func newSweep(o *options) *sweepBench {
	b := &sweepBench{o: o, cfg: o.sc.sweep}
	b.cfg.Seed = o.seed
	b.cfg.Workers = simWorkers
	return b
}

func (b *sweepBench) fixtures() error   { return nil }
func (b *sweepBench) setupEachOp() bool { return false }

// setup builds the pool from the profile table.
func (b *sweepBench) setup() error {
	pool := make([]workload.Profile, 0, len(b.o.sc.pool))
	for _, name := range b.o.sc.pool {
		p, err := workload.ByName(name)
		if err != nil {
			return err
		}
		pool = append(pool, p)
	}
	b.pool = pool
	return nil
}

// sweep runs the whole sweep as one shard, so the per-mix outcomes come
// back with the report.
func (b *sweepBench) sweep(onTask func(experiments.TaskInfo)) (experiments.Shard, error) {
	cfg := b.cfg
	cfg.OnTask = onTask
	return cfg.SweepShard(b.pool, alloc.WeightedInterferenceGraph{}, mixSize, nil)
}

// op runs one sweep. Every mix is requested when the sweep starts, so a
// mix's latency is the time until its last task (its phase-1 run or one of
// its candidate runs) completes.
func (b *sweepBench) op(t *tally) (opOut, error) {
	var mu sync.Mutex
	done := map[int]time.Time{}
	var sh experiments.Shard
	var err error
	var out opOut
	start := time.Now()
	timed(&out, func() {
		sh, err = b.sweep(func(ti experiments.TaskInfo) {
			now := time.Now()
			mu.Lock()
			done[ti.Mix] = now
			mu.Unlock()
		})
	})
	if err != nil {
		return opOut{}, err
	}
	checked := b.check(t, sh)
	out.digest, out.note = checked.digest, checked.note
	for _, end := range done {
		out.latency = append(out.latency, float64(end.Sub(start).Nanoseconds())/1e3)
	}
	return out, nil
}

// check verifies one sweep's outcomes: structural invariants always, and
// the recorded per-mix digests and lineage checksums when the seed has them.
func (b *sweepBench) check(t *tally, sh experiments.Shard) opOut {
	want, haveWant := recordedSweeps[b.o.seed]
	digests := make([]string, len(sh.Outcomes))
	tasks := 0
	for i, o := range sh.Outcomes {
		n := 1 + len(o.Candidates)
		tasks += n
		digests[i] = mixDigest(o)
		if err := outcomeInvariants(o); err != nil {
			t.fail(n, "mix %d %v: %v", i, o.Names, err)
			continue
		}
		if haveWant && (i >= len(want.mixes) || want.mixes[i] != digests[i]) {
			t.fail(n, "mix %d %v: digest %s does not match the recorded digest", i, o.Names, digests[i])
		}
	}
	t.attempted += tasks
	if combos := len(experiments.Combinations(len(b.pool), mixSize)); len(sh.Outcomes) != combos {
		t.fail(1, "sweep returned %d mixes, the pool has %d", len(sh.Outcomes), combos)
	}
	rep, err := experiments.MergeShards([]experiments.Shard{sh})
	if err != nil {
		t.fail(tasks, "merging the sweep: %v", err)
	}
	avg, mx := 100*rep.Overall(), 100*rep.MaxOverall()
	if haveWant && (avg != want.avgPct || mx != want.maxPct) {
		t.fail(tasks, "lineage checksums avg %s%% max %s%%, recorded avg %s%% max %s%%",
			fmtFloat(avg), fmtFloat(mx), fmtFloat(want.avgPct), fmtFloat(want.maxPct))
	}
	whole := digestStrings(digests)
	return opOut{
		digest: whole,
		note: fmt.Sprintf("avg %s%% max %s%% digest %s mixes %s",
			fmtFloat(avg), fmtFloat(mx), whole, strings.Join(digests, ",")),
	}
}

// outcomeInvariants checks what every mix outcome must satisfy whatever the
// seed: a chosen mapping among the candidates, one user time per benchmark
// under every candidate, and every benchmark completed.
func outcomeInvariants(o experiments.MixOutcome) error {
	if len(o.Names) != mixSize {
		return fmt.Errorf("%d benchmarks in the mix, want %d", len(o.Names), mixSize)
	}
	if o.ChosenIdx < 0 || o.ChosenIdx >= len(o.Candidates) {
		return fmt.Errorf("chosen index %d outside %d candidates", o.ChosenIdx, len(o.Candidates))
	}
	if !o.Candidates[o.ChosenIdx].Mapping.Equal(o.Chosen) {
		return fmt.Errorf("chosen mapping %v is not candidate %d", o.Chosen, o.ChosenIdx)
	}
	seen := map[string]bool{}
	for i, c := range o.Candidates {
		if seen[c.Mapping.Key()] {
			return fmt.Errorf("candidate %d repeats mapping %v", i, c.Mapping)
		}
		seen[c.Mapping.Key()] = true
		if len(c.UserCycles) != len(o.Names) {
			return fmt.Errorf("candidate %d has %d user times", i, len(c.UserCycles))
		}
		for j, u := range c.UserCycles {
			if u == 0 {
				return fmt.Errorf("candidate %d: %s never completed", i, o.Names[j])
			}
		}
	}
	return nil
}

// mixDigest hashes what a mix outcome decides: the chosen mapping and every
// candidate's mapping and per-benchmark user cycles.
func mixDigest(o experiments.MixOutcome) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, n := range o.Names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	put(uint64(o.ChosenIdx))
	for _, x := range o.Chosen {
		put(uint64(x))
	}
	for _, c := range o.Candidates {
		for _, x := range c.Mapping {
			put(uint64(x))
		}
		for _, u := range c.UserCycles {
			put(u)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fmtFloat prints every digit of x, as the lineage checksums are recorded.
func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func digestStrings(parts []string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// traced makes the sweep's traced run: an untraced sweep, a sweep with a
// span per scheduler task, a per-mix replay through the layers' public
// calls, and isolated passes over each profile's own stream, drawn from the
// generator and from a seeded compiled-trace corpus of the same runs.
func (b *sweepBench) traced(t *tally, rec *recorder) (map[string]float64, error) {
	vals := map[string]float64{}
	if err := b.setup(); err != nil {
		return nil, err
	}
	corpus := filepath.Join(b.o.dir, "corpus")
	if err := writeCorpus(corpus, b.o.sc.pool, b.o.seed, b.cfg); err != nil {
		return nil, err
	}
	var tracePool []workload.Profile
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		pool, err := experiments.TracePoolFromDir(corpus)
		if err != nil {
			return nil, err
		}
		rec.add("trace.open", 0, 0, t0, time.Now())
		tracePool = pool
	}
	vals["trace.open_ms"] = median(rec.durations("trace.open")) * 1e3

	// A first sweep pays the per-worker arenas, so that the untraced and
	// traced sweeps compared below both run warm.
	if _, err := b.sweep(nil); err != nil {
		return nil, err
	}
	t0 := time.Now()
	ref, err := b.sweep(nil)
	if err != nil {
		return nil, err
	}
	untraced := time.Since(t0)
	refOut := b.check(t, ref)
	b.o.log("untraced sweep: %.3fs %s", untraced.Seconds(), refOut.note)

	var mu sync.Mutex
	var phase1, candidate time.Duration
	var tasks, stolen int
	root := rec.reserve()
	t0 = time.Now()
	sh, err := b.sweep(func(ti experiments.TaskInfo) {
		end := time.Now()
		rec.add("experiments."+ti.Kind.String(), root, int64(ti.Mix)+1, end.Add(-ti.Duration), end)
		mu.Lock()
		defer mu.Unlock()
		tasks++
		if ti.Stolen {
			stolen++
		}
		if ti.Kind == experiments.TaskPhase1 {
			phase1 += ti.Duration
		} else {
			candidate += ti.Duration
		}
	})
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(t0)
	rec.finish(root, "experiments.sweep", 0, 0, t0, t0.Add(tracedWall))
	if got := mixDigests(sh.Outcomes); got != mixDigests(ref.Outcomes) {
		t.fail(tasks, "traced sweep digest %s differs from the untraced sweep's %s", got, mixDigests(ref.Outcomes))
	}
	vals["experiments.phase1_busy_s"] = phase1.Seconds()
	vals["experiments.candidate_busy_s"] = candidate.Seconds()
	vals["experiments.worker_idle_frac"] = 1 - (phase1+candidate).Seconds()/(simWorkers*tracedWall.Seconds())
	vals["experiments.steal_frac"] = float64(stolen) / float64(max(tasks, 1))
	vals["perfbench.trace_overhead_s"] = tracedWall.Seconds() - untraced.Seconds()
	b.o.log("traced sweep: %.3fs, %d tasks, %d stolen", tracedWall.Seconds(), tasks, stolen)

	b.replayMixes(t, rec, ref.Outcomes, vals)
	if err := b.layerPasses(rec, vals, tracePool); err != nil {
		return nil, err
	}
	return vals, nil
}

func mixDigests(outcomes []experiments.MixOutcome) string {
	d := make([]string, len(outcomes))
	for i, o := range outcomes {
		d[i] = mixDigest(o)
	}
	return digestStrings(d)
}
