package virt

import (
	"testing"

	"symbiosched/internal/cache"
	"symbiosched/internal/engine"
	"symbiosched/internal/kernel"
	"symbiosched/internal/workload"
)

func testEngineConfig() engine.Config {
	return engine.Config{
		Hierarchy:     cache.CoreDuoConfig().Scaled(64),
		QuantumCycles: 1_000_000,
	}
}

func profilesByName(t *testing.T, names ...string) []workload.Profile {
	t.Helper()
	var out []workload.Profile
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// boot runs the named benchmarks one per VM under ov: the cost model is
// resolved (Normalized), every guest thread carries the overhead factor
// (Decorate) and the machine the hypervisor's world-switch cost and Dom0
// activity (EngineConfig), the three calls a VM boot consists of.
func boot(t *testing.T, ov Overhead, names ...string) ([]*kernel.Process, *engine.Machine) {
	t.Helper()
	ov = ov.Normalized()
	procs := kernel.Workload(profilesByName(t, names...), 1, workload.TestScale)
	ov.Decorate(procs)
	return procs, engine.New(ov.EngineConfig(testEngineConfig(), 1), procs)
}

func TestDefaultOverhead(t *testing.T) {
	ov := DefaultOverhead()
	if ov.CostNum <= ov.CostDen || ov.CostDen == 0 {
		t.Fatalf("default overhead %+v not a >1 factor", ov)
	}
	if ov.SwitchCycles == 0 {
		t.Fatal("default world-switch cost is zero")
	}
}

func TestNormalizedPanicsOnSub1Overhead(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overhead < 1 did not panic")
		}
	}()
	Overhead{CostNum: 7, CostDen: 8}.Normalized()
}

func TestVMsRunToCompletion(t *testing.T) {
	procs, m := boot(t, DefaultOverhead(), "povray", "gobmk")
	res := m.Run(engine.RunOptions{})
	if !res.AllDone {
		t.Fatal("VM workloads did not complete")
	}
	for _, p := range procs {
		if p.CompletionUser() == 0 {
			t.Fatalf("VM %s never completed", p.Name)
		}
	}
}

func TestVirtualizationOverheadSlowsGuests(t *testing.T) {
	// The same workload natively vs under the hypervisor: the VM user time
	// must exceed native by roughly the overhead factor.
	native := kernel.Workload(profilesByName(t, "povray"), 1, workload.TestScale)
	nm := engine.New(testEngineConfig(), native)
	nm.SetAffinities([]int{0})
	nm.Run(engine.RunOptions{})
	nativeTime := native[0].CompletionUser()

	guests, m := boot(t, DefaultOverhead(), "povray")
	m.SetAffinities([]int{0})
	m.Run(engine.RunOptions{})
	vmTime := guests[0].CompletionUser()

	ratio := float64(vmTime) / float64(nativeTime)
	if ratio < 1.05 || ratio > 1.35 {
		t.Fatalf("VM/native time ratio %.3f outside [1.05, 1.35] for 12.5%% overhead", ratio)
	}
}

func TestVMContentionPreservedButCompressed(t *testing.T) {
	// §5.1.2: the mcf/libquantum interference survives encapsulation in VMs
	// ("the negative caching effect among them still maintain similar
	// impact"), but the relative gain from a good schedule shrinks.
	relGain := func(virtual bool) float64 {
		run := func(aff []int) uint64 {
			if virtual {
				guests, m := boot(t, DefaultOverhead(), "mcf", "libquantum")
				m.SetAffinities(aff)
				m.Run(engine.RunOptions{})
				return guests[0].CompletionUser()
			}
			procs := kernel.Workload(profilesByName(t, "mcf", "libquantum"), 1, workload.TestScale)
			m := engine.New(testEngineConfig(), procs)
			m.SetAffinities(aff)
			m.Run(engine.RunOptions{})
			return procs[0].CompletionUser()
		}
		worst := run([]int{0, 1}) // co-run on both cores: contention
		best := run([]int{0, 0})  // same core: time-sliced
		return float64(worst-best) / float64(worst)
	}

	nativeGain := relGain(false)
	vmGain := relGain(true)
	if nativeGain < 0.15 {
		t.Fatalf("native mcf gain %.3f too small; contention model broken", nativeGain)
	}
	if vmGain <= 0 {
		t.Fatalf("VM gain %.3f: contention effect vanished under virtualization", vmGain)
	}
	if vmGain >= nativeGain {
		t.Fatalf("VM gain %.3f not below native gain %.3f (Fig 11 vs Fig 10)", vmGain, nativeGain)
	}
}

func TestWorldSwitchCostCharged(t *testing.T) {
	// Same-core time-slicing under the hypervisor pays the world-switch
	// cost; with an exaggerated cost, wall time must inflate measurably.
	mk := func(switchCycles uint64) uint64 {
		ov := DefaultOverhead()
		ov.SwitchCycles = switchCycles
		_, m := boot(t, ov, "povray", "gobmk")
		m.SetAffinities([]int{0, 0})
		return m.Run(engine.RunOptions{}).Cycles
	}
	cheap := mk(0)
	dear := mk(500_000) // half a quantum per switch
	if dear <= cheap {
		t.Fatalf("wall time with dear switches %d not above cheap %d", dear, cheap)
	}
}

func TestDom0BackgroundGeneratesCacheTraffic(t *testing.T) {
	// With Dom0 service activity enabled, the L2 sees accesses beyond what
	// the single pinned guest produces on its own core, and wall time grows.
	quiet := DefaultOverhead()
	quiet.Dom0Period, quiet.Dom0Ops = 0, 0
	mkCycles := func(ov Overhead) (uint64, uint64) {
		_, m := boot(t, ov, "povray")
		m.SetAffinities([]int{0})
		res := m.Run(engine.RunOptions{})
		return res.Cycles, m.Hierarchy().L2For(0).Stats().Accesses
	}
	quietCycles, quietL2 := mkCycles(quiet)
	busyCycles, busyL2 := mkCycles(DefaultOverhead())
	if busyCycles <= quietCycles {
		t.Fatalf("Dom0 activity did not extend wall time: %d vs %d", busyCycles, quietCycles)
	}
	// Dom0's service bursts add L2 traffic beyond the guest's own.
	if busyL2 <= quietL2 {
		t.Fatalf("Dom0 produced no extra cache traffic: %d vs %d", busyL2, quietL2)
	}
}

func TestDecorateCarriesOverheadFactor(t *testing.T) {
	// The zero model resolves to the default, and every guest thread —
	// including each thread of a multi-threaded guest — carries its factor.
	if got := (Overhead{}).Normalized(); got != DefaultOverhead() {
		t.Fatalf("zero overhead normalized to %+v, want the default", got)
	}
	procs, _ := boot(t, Overhead{}, "povray", "ferret")
	if procs[0].Name != "povray" || procs[1].Name != "ferret" || len(procs[1].Threads) < 2 {
		t.Fatalf("guests = %s (%d threads), %s (%d threads)",
			procs[0].Name, len(procs[0].Threads), procs[1].Name, len(procs[1].Threads))
	}
	for _, p := range procs {
		for _, th := range p.Threads {
			if th.CostNum != 9 || th.CostDen != 8 {
				t.Fatalf("guest thread missing overhead factor: %+v", th)
			}
		}
	}
}
