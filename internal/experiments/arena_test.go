package experiments

import (
	"reflect"
	"testing"

	"symbiosched/internal/alloc"
	"symbiosched/internal/engine"
	"symbiosched/internal/kernel"
	"symbiosched/internal/monitor"
)

// freshMachine builds the job's process set and machine from scratch for
// the arena's reference runs below, which share no code with arena.go: the
// workload comes from kernel.Workload, the machine from engine.New with the
// signature unit attached, and a virtualized job boots its VMs through the
// cost model's own calls (Normalized, Decorate, EngineConfig).
func freshMachine(j mixJob) ([]*kernel.Process, *engine.Machine) {
	procs := kernel.Workload(j.profiles, j.cfg.Seed, j.cfg.Scale())
	ec := j.cfg.engineConfig(j.machine)
	if j.virt != nil {
		ov := j.virt.Overhead.Normalized()
		ov.Decorate(procs)
		ec = ov.EngineConfig(ec, j.cfg.Seed)
	}
	return procs, engine.New(ec, procs)
}

// freshRun is the reference for a run to completion under a fixed mapping.
// Its signature unit stays attached, so equality with the arena (which
// detaches it) also proves that detaching it changes no result.
func freshRun(j mixJob, aff alloc.Mapping) MixResult {
	procs, m := freshMachine(j)
	m.SetAffinities(aff)
	res := m.Run(engine.RunOptions{})
	out := MixResult{Mapping: aff.Canonical(), WallCycles: res.Cycles}
	for _, p := range procs {
		out.UserCycles = append(out.UserCycles, p.CompletionUser())
	}
	return out
}

// freshPhase1 is the reference for the signature-gathering phase: a fresh
// machine and a fresh monitor (monitor.New, not the arena's scratch).
func freshPhase1(j mixJob) alloc.Mapping {
	_, m := freshMachine(j)
	m.DistributeRoundRobin()
	mo := monitor.New(j.policy)
	m.Run(engine.RunOptions{
		Horizon:       j.cfg.Phase1Horizon,
		MonitorPeriod: j.cfg.MonitorPeriod,
		OnMonitor:     mo.Hook(),
	})
	return mo.Majority().Canonical()
}

// TestArenaRunMappingMatchesFresh pins the arena's core invariant: a
// machine and workload rewound in place must produce the same MixResult as
// fresh construction — across repeated runs, different mappings, workload
// switches (which evict the single-entry cache), and all three machines:
// the Core 2 Duo, the Xeon's private L2s and the shared-L2 quad core.
func TestArenaRunMappingMatchesFresh(t *testing.T) {
	c := Quick()
	cases := []struct {
		m     machine
		names []string
		aff   alloc.Mapping
	}{
		{coreDuo, []string{"povray", "gobmk"}, alloc.Mapping{0, 1}},
		{coreDuo, []string{"povray", "gobmk"}, alloc.Mapping{0, 0}},
		{coreDuo, []string{"hmmer", "libquantum"}, alloc.Mapping{0, 1}},
		{xeon, []string{"mcf", "libquantum"}, alloc.Mapping{0, 0}},
		{xeon, []string{"mcf"}, alloc.Mapping{0}},
		{quadCore, []string{"mcf", "libquantum", "povray", "gobmk"}, alloc.Mapping{0, 0, 1, 2}},
	}
	jobs := make([]mixJob, len(cases))
	want := make([]MixResult, len(cases))
	for i, tc := range cases {
		jobs[i] = mixJob{cfg: c, machine: tc.m, profiles: mixProfiles(t, tc.names...)}
		want[i] = freshRun(jobs[i], tc.aff)
	}
	a := getArena()
	defer putArena(a)
	for round := 0; round < 2; round++ {
		for i, tc := range cases {
			if got := a.runMapping(&jobs[i], tc.aff); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("round %d machine %d %v under %v: arena %+v != fresh %+v",
					round, tc.m, tc.names, tc.aff, got, want[i])
			}
		}
	}
}

// TestArenaPhase1MatchesFresh does the same for the signature-gathering
// phase, whose machine keeps the Bloom-filter unit attached: the reused
// filters, recency vectors and monitor interplay must reproduce the fresh
// machine's majority mapping exactly, on the Core 2 Duo and on the quad
// core.
func TestArenaPhase1MatchesFresh(t *testing.T) {
	c := Quick()
	policy := alloc.WeightedInterferenceGraph{}
	jobs := []mixJob{
		{cfg: c, profiles: mixProfiles(t, "mcf", "libquantum", "povray", "gobmk"), policy: policy},
		{cfg: c, machine: quadCore, profiles: mixProfiles(t, QuadCoreMix()...), policy: policy},
	}
	a := getArena()
	defer putArena(a)
	for i := range jobs {
		want := freshPhase1(jobs[i])
		for round := 0; round < 2; round++ {
			if got := a.phase1(&jobs[i]); !got.Equal(want) {
				t.Fatalf("machine %d round %d: arena phase-1 chose %v, fresh chose %v",
					jobs[i].machine, round, got, want)
			}
		}
	}
}

// TestArenaSharesMachinesAcrossConfigs checks the machine cache keys on the
// engine configuration: phase-1 (signature attached) and phase-2 (signature
// detached) must get distinct machines, and a second run of either must
// reuse the cached one rather than growing the map.
func TestArenaSharesMachinesAcrossConfigs(t *testing.T) {
	job := mixJob{cfg: Quick(), profiles: mixProfiles(t, "povray", "gobmk"), policy: alloc.WeightedInterferenceGraph{}}
	// A pristine arena (not from the sync.Pool, which may hand back one
	// warmed by earlier tests) so the cache-growth accounting is exact.
	a := &simArena{machines: map[engineKey]*engine.Machine{}}

	a.runMapping(&job, alloc.Mapping{0, 1})
	a.phase1(&job)
	if len(a.machines) != 2 {
		t.Fatalf("expected 2 machines (phase-1 + phase-2 configs), got %d", len(a.machines))
	}
	a.runMapping(&job, alloc.Mapping{0, 0})
	a.phase1(&job)
	if len(a.machines) != 2 {
		t.Fatalf("machine cache grew on reuse: %d entries", len(a.machines))
	}
}

// TestArenaVirtMatchesFresh pins the arena's virtualized path to the fresh
// reference: the value-typed Dom0 descriptor, the rewound process set with
// re-attached overhead factors, and the reused background generators must
// reproduce freshly booted VMs' results exactly.
func TestArenaVirtMatchesFresh(t *testing.T) {
	c := Quick()
	mix := mixProfiles(t, "mcf", "libquantum", "povray", "gobmk")
	aff := alloc.Mapping{0, 1, 0, 1}
	vm := mixJob{cfg: c, profiles: mix, policy: alloc.WeightedInterferenceGraph{}, virt: DefaultVirt()}
	native := mixJob{cfg: c, profiles: mix}
	a := getArena()
	defer putArena(a)

	wantRun := freshRun(vm, aff)
	wantMap := freshPhase1(vm)
	for round := 0; round < 3; round++ {
		if got := a.runMapping(&vm, aff); !reflect.DeepEqual(got, wantRun) {
			t.Fatalf("round %d: arena virt %+v, fresh %+v", round, got, wantRun)
		}
		if got := a.phase1(&vm); !got.Equal(wantMap) {
			t.Fatalf("round %d: arena virt phase-1 chose %v, fresh chose %v", round, got, wantMap)
		}
		// Interleave a native run so virt state cannot leak across key space.
		if got := a.runMapping(&native, aff); reflect.DeepEqual(got, wantRun) {
			t.Fatal("native and virtualized runs produced identical results — key collision?")
		}
	}
}

// BenchmarkRunMixAllocs measures steady-state allocations of a full RunMix
// (phase 1 + all phase-2 candidates) with the worker arenas warm: the
// sync.Pool keeps them alive across iterations, so allocs/op reflects the
// residual per-run cost (monitor views, policy scratch), not machine
// construction. This is the ISSUE's ≥5× allocation-reduction gauge; compare
// against a baseline build with `go test -bench RunMixAllocs -benchmem`.
func BenchmarkRunMixAllocs(b *testing.B) {
	c := Quick()
	c.Workers = 1
	mix := mixProfiles(b, "povray", "gobmk", "hmmer", "libquantum")
	cands := c.candidatesFor(mix)
	policy := alloc.WeightedInterferenceGraph{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunMix(mix, policy, cands, nil)
	}
}

// BenchmarkSweepQuick measures the flat scheduler end to end on the Fig 10
// bench pool at Quick scale (15 mixes), the same workload cmd/bench times.
func BenchmarkSweepQuick(b *testing.B) {
	c := Quick()
	pool := mixProfiles(b, "mcf", "omnetpp", "libquantum", "hmmer", "povray", "gobmk")
	policy := alloc.WeightedInterferenceGraph{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sweep(pool, policy, 4, nil)
	}
}
