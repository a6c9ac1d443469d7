package engine

import (
	"testing"

	"symbiosched/internal/cache"
)

// TestAccessHookOnlyObserves runs one two-process mix with and without an
// AccessHook: the hook must change nothing the simulation reports (cycles,
// per-thread counters, L1/L2 statistics), fire once per memory reference,
// and see per core exactly the L1 hits, L2 hits and L2 misses the caches
// count.
func TestAccessHookOnlyObserves(t *testing.T) {
	type outcome struct {
		res     Result
		threads [][5]uint64 // user cycles, completion, mem refs, L2 refs, L2 misses
		l1, l2  [2]cache.Stats
	}
	run := func(hook func(core int, lineAddr uint64, level cache.Level)) outcome {
		procs := mixByNames(t, "mcf", "povray")
		cfg := testConfig()
		cfg.AccessHook = hook
		m := New(cfg, procs)
		m.SetAffinities([]int{0, 1})
		o := outcome{res: m.Run(RunOptions{})}
		for _, p := range procs {
			th := p.Threads[0]
			o.threads = append(o.threads, [5]uint64{th.UserCycles, th.CompletionUser, th.MemRefs, th.L2Refs, th.L2Misses})
		}
		for c := range o.l1 {
			o.l1[c] = m.Hierarchy().L1For(c).CoreStats(c)
			o.l2[c] = m.Hierarchy().L2For(c).CoreStats(c)
		}
		return o
	}
	plain := run(nil)
	var seen [2][3]uint64 // per core, per level
	hooked := run(func(core int, _ uint64, level cache.Level) { seen[core][level]++ })

	if hooked.res != plain.res {
		t.Fatalf("hooked run %+v, unhooked %+v", hooked.res, plain.res)
	}
	for i := range plain.threads {
		if hooked.threads[i] != plain.threads[i] {
			t.Fatalf("thread %d: hooked %v, unhooked %v", i, hooked.threads[i], plain.threads[i])
		}
	}
	if hooked.l1 != plain.l1 || hooked.l2 != plain.l2 {
		t.Fatalf("cache stats: hooked L1 %+v L2 %+v, unhooked L1 %+v L2 %+v",
			hooked.l1, hooked.l2, plain.l1, plain.l2)
	}
	for c := range seen {
		got := seen[c]
		want := [3]uint64{plain.l1[c].Hits, plain.l2[c].Hits, plain.l2[c].Misses}
		if got != want {
			t.Fatalf("core %d: hook saw (L1, L2, memory) = %v, caches counted %v", c, got, want)
		}
		if memRefs := plain.threads[c][2]; got[0]+got[1]+got[2] != memRefs {
			t.Fatalf("core %d: hook fired %d times for %d memory references", c, got[0]+got[1]+got[2], memRefs)
		}
	}
	if seen[0][cache.Memory] == 0 || seen[1][cache.L1] == 0 {
		t.Fatal("mix exercised too few levels to check the hook")
	}
}
