package main

import (
	"sync"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/engine"
	"symbiosched/internal/experiments"
	"symbiosched/internal/kernel"
	"symbiosched/internal/monitor"
	"symbiosched/internal/workload"
)

// tracedPolicy is the weighted-interference-graph policy with a span
// around every decision. It implements alloc.ScratchPolicy, so the monitor
// takes the same allocation path it takes for the policy itself.
type tracedPolicy struct {
	inner  alloc.WeightedInterferenceGraph
	rec    *recorder
	op     int64
	parent int64 // the monitor quantum span the next decision belongs to
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

// Allocate completes alloc.Policy; the monitor calls AllocateScratch.
func (p *tracedPolicy) Allocate(views []kernel.View, cores int) alloc.Mapping {
	return p.inner.Allocate(views, cores)
}

func (p *tracedPolicy) AllocateScratch(views []kernel.View, cores int, s *alloc.Scratch) alloc.Mapping {
	t0 := time.Now()
	m := p.inner.AllocateScratch(views, cores, s)
	p.rec.add("alloc.allocate", p.parent, p.op, t0, time.Now())
	return m
}

// replayCounts are the exact simulation counts of the per-mix replay.
type replayCounts struct {
	instr1, instr2, cycles, switches uint64
	l1Acc, l1Miss, l2Acc, l2Miss     uint64
	majorityVotes, invocations       int
}

func (c *replayCounts) add(o replayCounts) {
	c.instr1 += o.instr1
	c.instr2 += o.instr2
	c.cycles += o.cycles
	c.switches += o.switches
	c.l1Acc += o.l1Acc
	c.l1Miss += o.l1Miss
	c.l2Acc += o.l2Acc
	c.l2Miss += o.l2Miss
	c.majorityVotes += o.majorityVotes
	c.invocations += o.invocations
}

// machineCounts adds a finished run's result and cache statistics.
func (c *replayCounts) machineCounts(m *engine.Machine, res engine.Result) {
	c.cycles += res.Cycles
	c.switches += m.ContextSwitches()
	h := m.Hierarchy()
	for core := 0; core < m.Cores(); core++ {
		s := h.L1For(core).Stats()
		c.l1Acc += s.Accesses
		c.l1Miss += s.Misses
	}
	for _, l2 := range h.L2s() {
		s := l2.Stats()
		c.l2Acc += s.Accesses
		c.l2Miss += s.Misses
	}
}

// replayMixes re-runs every mix of the sweep through the layers' public
// calls — kernel.Workload, engine.New and Machine.Run, a monitor whose hook
// and policy are wrapped in spans — and requires the chosen mappings and
// candidate user cycles to match the untraced sweep bit for bit.
func (b *sweepBench) replayMixes(t *tally, rec *recorder, ref []experiments.MixOutcome, vals map[string]float64) {
	combos := experiments.Combinations(len(b.pool), mixSize)
	next := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total replayCounts
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local replayCounts
			for i := range next {
				mix := make([]workload.Profile, 0, mixSize)
				for _, idx := range combos[i] {
					mix = append(mix, b.pool[idx])
				}
				var want experiments.MixOutcome
				if i < len(ref) {
					want = ref[i]
				}
				if msg := b.replayMix(rec, int64(i)+1, mix, want, &local); msg != "" {
					mu.Lock()
					t.fail(1+len(want.Candidates), "replay of mix %d: %s", i, msg)
					mu.Unlock()
				}
			}
			mu.Lock()
			total.add(local)
			mu.Unlock()
		}()
	}
	for i := range combos {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, o := range ref {
		t.attempted += 1 + len(o.Candidates)
	}

	phase1Self := sum(rec.selfTime("engine.phase1"))
	phase2 := sum(rec.durations("engine.phase2"))
	vals["engine.phase1_ns_per_kinstr"] = phase1Self * 1e9 / (float64(total.instr1) / 1e3)
	vals["engine.phase2_ns_per_kinstr"] = phase2 * 1e9 / (float64(total.instr2) / 1e3)
	vals["engine.sim_instr"] = float64(total.instr1 + total.instr2)
	vals["engine.sim_cycles"] = float64(total.cycles)
	vals["engine.context_switches"] = float64(total.switches)
	vals["cache.l2_accesses"] = float64(total.l2Acc)
	vals["cache.l1_miss_rate"] = float64(total.l1Miss) / float64(max(total.l1Acc, 1))
	vals["cache.l2_miss_rate"] = float64(total.l2Miss) / float64(max(total.l2Acc, 1))
	quanta := scaled(rec.durations("monitor.quantum"), 1e6)
	vals["monitor.quantum_us_p50"] = quantile(quanta, 0.5)
	vals["monitor.quantum_us_p90"] = quantile(quanta, 0.9)
	vals["monitor.quanta"] = float64(len(quanta))
	vals["monitor.vote_majority_frac"] = float64(total.majorityVotes) / float64(max(total.invocations, 1))
	vals["alloc.allocate_us_p50"] = median(scaled(rec.durations("alloc.allocate"), 1e6))
	b.o.log("replay: %d phase-1 instr, %d phase-2 instr, %d cycles, %d quanta",
		total.instr1, total.instr2, total.cycles, len(quanta))
}

// replayMix runs one mix's two phases and returns a description of the
// first difference from the untraced outcome, or "" when they agree.
func (b *sweepBench) replayMix(rec *recorder, op int64, mix []workload.Profile, want experiments.MixOutcome, c *replayCounts) string {
	cfg := b.cfg
	mixSpan := rec.reserve()
	mixStart := time.Now()
	defer func() { rec.finish(mixSpan, "experiments.mix", 0, op, mixStart, time.Now()) }()

	machine := func(disableSignature bool) (*engine.Machine, []*kernel.Process) {
		procs := kernel.Workload(mix, cfg.Seed, cfg.Scale())
		ec := cfg.EngineConfig()
		ec.DisableSignature = disableSignature
		return engine.New(ec, procs), procs
	}

	// Phase 1: signature gathering under the monitor, majority vote.
	m, procs := machine(false)
	m.DistributeRoundRobin()
	policy := &tracedPolicy{rec: rec, op: op}
	mo := monitor.New(policy)
	hook := mo.Hook()
	runSpan := rec.reserve()
	t0 := time.Now()
	res := m.Run(engine.RunOptions{
		Horizon:       cfg.Phase1Horizon,
		MonitorPeriod: cfg.MonitorPeriod,
		OnMonitor: func(m *engine.Machine, now uint64) {
			policy.parent = rec.reserve()
			q0 := time.Now()
			hook(m, now)
			rec.finish(policy.parent, "monitor.quantum", runSpan, op, q0, time.Now())
		},
	})
	rec.finish(runSpan, "engine.phase1", mixSpan, op, t0, time.Now())
	c.instr1 += res.Instructions
	c.machineCounts(m, res)
	best := 0
	for _, v := range mo.Votes() {
		best = max(best, v)
	}
	c.majorityVotes += best
	c.invocations += mo.Invocations()
	chosen := mo.Majority()
	if chosen == nil {
		chosen = alloc.RoundRobin{}.Allocate(make([]kernel.View, len(kernel.Threads(procs))), m.Cores())
	}
	chosen = chosen.Canonical()
	if !chosen.Equal(want.Chosen) {
		return "chosen mapping differs from the untraced sweep"
	}

	// Phase 2: the sweep's candidate mappings, plus the chosen one when it
	// is not among them, each to completion.
	cands := experiments.CandidatesFor(cfg, mix)
	chosenIdx := -1
	for i, cand := range cands {
		if cand.Key() == chosen.Key() {
			chosenIdx = i
		}
	}
	if chosenIdx < 0 {
		chosenIdx = len(cands)
		cands = append(cands, chosen)
	}
	if chosenIdx != want.ChosenIdx || len(cands) != len(want.Candidates) {
		return "candidate set differs from the untraced sweep"
	}
	for i, cand := range cands {
		m, procs := machine(true)
		m.SetAffinities(cand)
		t0 := time.Now()
		res := m.Run(engine.RunOptions{})
		rec.add("engine.phase2", mixSpan, op, t0, time.Now())
		c.instr2 += res.Instructions
		c.machineCounts(m, res)
		w := want.Candidates[i]
		if !cand.Canonical().Equal(w.Mapping) || len(w.UserCycles) != len(procs) {
			return "candidate mapping differs from the untraced sweep"
		}
		for j, p := range procs {
			if p.CompletionUser() != w.UserCycles[j] {
				return "candidate user cycles differ from the untraced sweep"
			}
		}
	}
	return ""
}
