package engine

import (
	"testing"

	"symbiosched/internal/cache"
	"symbiosched/internal/kernel"
	"symbiosched/internal/workload"
)

// testConfig returns a scaled-down dual-core shared-L2 machine that keeps
// unit tests fast: the Core 2 Duo hierarchy at 1/64 size (64KB shared L2),
// used with workload.TestScale. The quantum keeps a full L2 refill
// (1024 lines × 100 cycles) an order of magnitude below the slice.
func testConfig() Config {
	return Config{
		Hierarchy:     cache.CoreDuoConfig().Scaled(64),
		QuantumCycles: 1_000_000,
	}
}

func mixByNames(t *testing.T, names ...string) []*kernel.Process {
	t.Helper()
	var profs []workload.Profile
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, p)
	}
	return kernel.Workload(profs, 42, workload.TestScale)
}

func TestWorkloadConstruction(t *testing.T) {
	procs := mixByNames(t, "povray", "mcf")
	if len(procs) != 2 {
		t.Fatalf("procs = %d", len(procs))
	}
	if procs[0].Name != "povray" || len(procs[0].Threads) != 1 {
		t.Fatalf("proc0 = %+v", procs[0])
	}
	th := kernel.Threads(procs)
	if len(th) != 2 || th[0].ID != 0 || th[1].ID != 1 {
		t.Fatalf("threads = %+v", th)
	}
	if th[0].InstrTarget == 0 {
		t.Fatal("zero instruction target")
	}
}

func TestRunToCompletion(t *testing.T) {
	procs := mixByNames(t, "povray", "gobmk")
	m := New(testConfig(), procs)
	m.DistributeRoundRobin()
	res := m.Run(RunOptions{})
	if !res.AllDone {
		t.Fatal("run did not complete")
	}
	for _, p := range procs {
		if !p.Done() {
			t.Fatalf("%s not done", p.Name)
		}
		if p.CompletionUser() == 0 {
			t.Fatalf("%s has zero completion time", p.Name)
		}
		if p.CompletionUser() > p.UserCycles() {
			t.Fatalf("%s completion %d exceeds user cycles %d",
				p.Name, p.CompletionUser(), p.UserCycles())
		}
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("empty result %+v", res)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, []uint64) {
		procs := mixByNames(t, "mcf", "libquantum", "povray", "gobmk")
		m := New(testConfig(), procs)
		m.DistributeRoundRobin()
		res := m.Run(RunOptions{})
		var times []uint64
		for _, p := range procs {
			times = append(times, p.CompletionUser())
		}
		return res.Cycles, times
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 {
		t.Fatalf("cycles differ: %d vs %d", c1, c2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("completion %d differs: %d vs %d", i, t1[i], t2[i])
		}
	}
}

func TestHorizonStopsEarly(t *testing.T) {
	procs := mixByNames(t, "mcf", "libquantum")
	m := New(testConfig(), procs)
	m.DistributeRoundRobin()
	res := m.Run(RunOptions{Horizon: 50_000})
	if res.Cycles > 200_000 {
		t.Fatalf("horizon run used %d cycles", res.Cycles)
	}
}

func TestTimeSharingOnOneCore(t *testing.T) {
	// Two threads pinned to core 0 must both make progress via quantum
	// rotation, and core 1 must stay idle.
	procs := mixByNames(t, "povray", "gobmk")
	m := New(testConfig(), procs)
	m.SetAffinities([]int{0, 0})
	res := m.Run(RunOptions{})
	if !res.AllDone {
		t.Fatal("time-shared threads did not complete")
	}
	if m.ContextSwitches() == 0 {
		t.Fatal("no context switches on a shared core")
	}
	if l1 := m.Hierarchy().L1For(1).Stats().Accesses; l1 != 0 {
		t.Fatalf("idle core touched its L1 %d times", l1)
	}
}

func TestSignaturesCaptured(t *testing.T) {
	procs := mixByNames(t, "mcf", "libquantum", "povray", "gobmk")
	m := New(testConfig(), procs)
	m.DistributeRoundRobin()
	m.Run(RunOptions{Horizon: 8_000_000})
	views := kernel.Snapshot(procs)
	withSig := 0
	for _, v := range views {
		if v.HasSig {
			withSig++
			if len(v.Symbiosis) != 2 {
				t.Fatalf("symbiosis vector has %d entries, want 2", len(v.Symbiosis))
			}
		}
	}
	if withSig < 3 {
		t.Fatalf("only %d/4 threads have signatures after 8M cycles", withSig)
	}
}

func TestCacheHungryHasBiggerOccupancyThanComputeBound(t *testing.T) {
	// The core of the paper's Fig 5 argument: occupancy weight separates
	// footprint classes. mcf pinned alone on core 0, povray alone on core 1:
	// mcf's RBV occupancy must dwarf povray's.
	procs := mixByNames(t, "mcf", "povray")
	m := New(testConfig(), procs)
	m.SetAffinities([]int{0, 1})
	m.Run(RunOptions{Horizon: 3_000_000})
	occMcf := m.Unit().OccupancyWeight(0)
	occPov := m.Unit().OccupancyWeight(1)
	if occMcf <= 2*occPov {
		t.Fatalf("mcf core-filter occupancy %d not ≫ povray occupancy %d",
			occMcf, occPov)
	}
}

func TestSharedCacheContentionSlowsDown(t *testing.T) {
	// §2.3.2: mcf co-run with libquantum on different cores of a shared-L2
	// machine must consume more user cycles than mcf run effectively alone
	// (libquantum parked on the same core: they time-slice, so mcf sees a
	// mostly private cache during its quanta).
	sep := mixByNames(t, "mcf", "libquantum")
	m1 := New(testConfig(), sep)
	m1.SetAffinities([]int{0, 1}) // different cores: contend
	m1.Run(RunOptions{})
	contended := sep[0].CompletionUser()

	same := mixByNames(t, "mcf", "libquantum")
	m2 := New(testConfig(), same)
	m2.SetAffinities([]int{0, 0}) // same core: time-sliced, no L2 contention
	m2.Run(RunOptions{})
	isolated := same[0].CompletionUser()

	if contended <= isolated {
		t.Fatalf("mcf contended user time %d not above isolated %d", contended, isolated)
	}
	slowdown := float64(contended) / float64(isolated)
	if slowdown < 1.10 {
		t.Fatalf("mcf slowdown %.2fx too small to reproduce §2.3.2 contention", slowdown)
	}
	if slowdown > 4.0 {
		t.Fatalf("mcf slowdown %.2fx implausibly large (paper max 67%% runtime increase)", slowdown)
	}
}

func TestComputeBoundInsensitive(t *testing.T) {
	// povray must be nearly unaffected by a libquantum co-runner (§5.1.1).
	sep := mixByNames(t, "povray", "libquantum")
	m1 := New(testConfig(), sep)
	m1.SetAffinities([]int{0, 1})
	m1.Run(RunOptions{})
	contended := sep[0].CompletionUser()

	same := mixByNames(t, "povray", "libquantum")
	m2 := New(testConfig(), same)
	m2.SetAffinities([]int{0, 0})
	m2.Run(RunOptions{})
	isolated := same[0].CompletionUser()

	ratio := float64(contended) / float64(isolated)
	if ratio > 1.10 {
		t.Fatalf("povray degraded %.2fx under contention; compute-bound should be insensitive", ratio)
	}
}

func TestMonitorCallbackInvokedAndCanRepin(t *testing.T) {
	procs := mixByNames(t, "mcf", "libquantum", "povray", "gobmk")
	m := New(testConfig(), procs)
	m.DistributeRoundRobin()
	calls := 0
	m.Run(RunOptions{
		Horizon:       1_000_000,
		MonitorPeriod: 100_000,
		OnMonitor: func(m *Machine, now uint64) {
			calls++
			if calls == 3 {
				m.SetAffinities([]int{0, 0, 1, 1})
			}
		},
	})
	if calls < 5 {
		t.Fatalf("monitor invoked %d times over 1M cycles at 100k period", calls)
	}
	aff := m.Affinities()
	want := []int{0, 0, 1, 1}
	for i := range want {
		if aff[i] != want[i] {
			t.Fatalf("affinities = %v, want %v", aff, want)
		}
	}
}

func TestSetAffinitiesValidation(t *testing.T) {
	procs := mixByNames(t, "povray", "gobmk")
	m := New(testConfig(), procs)
	for _, aff := range [][]int{{0}, {0, 5}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetAffinities(%v) did not panic", aff)
				}
			}()
			m.SetAffinities(aff)
		}()
	}
}

func TestMultiThreadedProcessCompletion(t *testing.T) {
	p, err := workload.ByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	procs := kernel.Workload([]workload.Profile{p}, 7, workload.TestScale)
	if len(procs[0].Threads) != 4 {
		t.Fatalf("ferret threads = %d", len(procs[0].Threads))
	}
	m := New(testConfig(), procs)
	m.DistributeRoundRobin()
	res := m.Run(RunOptions{})
	if !res.AllDone || !procs[0].Done() {
		t.Fatal("multi-threaded process did not complete")
	}
	if procs[0].CompletionUser() == 0 {
		t.Fatal("zero process completion time")
	}
}

func TestPerCoreClocksStayClose(t *testing.T) {
	// The min-clock dispatcher must keep concurrent cores within one batch
	// of each other, or interference timing would be wrong.
	procs := mixByNames(t, "mcf", "libquantum")
	m := New(testConfig(), procs)
	m.SetAffinities([]int{0, 1})
	m.Run(RunOptions{Horizon: 500_000})
	t0, t1 := m.cores[0].time, m.cores[1].time
	diff := int64(t0) - int64(t1)
	if diff < 0 {
		diff = -diff
	}
	// One batch at worst costs Batch × (1+MemCost) cycles.
	limit := int64(m.cfg.Batch) * int64(1+m.cfg.MemCost)
	if diff > limit {
		t.Fatalf("core clocks diverged by %d cycles (limit %d)", diff, limit)
	}
}

func BenchmarkEngineSimulation(b *testing.B) {
	p1, _ := workload.ByName("mcf")
	p2, _ := workload.ByName("libquantum")
	for i := 0; i < b.N; i++ {
		procs := kernel.Workload([]workload.Profile{p1, p2}, 42, workload.TestScale)
		m := New(testConfig(), procs)
		m.SetAffinities([]int{0, 1})
		m.Run(RunOptions{Horizon: 1_000_000})
	}
}

func TestBackgroundActivityConsumesWallTimeNotUserTime(t *testing.T) {
	mk := func(withBG bool) (*Machine, []*kernel.Process) {
		procs := mixByNames(t, "povray")
		cfg := testConfig()
		if withBG {
			cfg.Background = BackgroundConfig{
				Period: 200_000,
				Ops:    1_000,
				Gen: workload.BackgroundSpec{
					Pattern:    "stream",
					Region:     1 << 20,
					MemRatio:   0.4,
					Base:       uint64(200) << 40,
					CoreStride: uint64(1) << 40,
					Seed:       0, // core c draws Seed^(c+1), matching the old closure
				},
			}
		}
		m := New(cfg, procs)
		m.SetAffinities([]int{0})
		return m, procs
	}

	mQuiet, pQuiet := mk(false)
	rQuiet := mQuiet.Run(RunOptions{})
	mBusy, pBusy := mk(true)
	rBusy := mBusy.Run(RunOptions{})

	if rBusy.Cycles <= rQuiet.Cycles {
		t.Fatalf("background work did not extend wall time: %d vs %d",
			rBusy.Cycles, rQuiet.Cycles)
	}
	// User time may rise through cache pollution (a real effect) but must
	// not absorb the background cycles themselves: the ~20%-duty background
	// would double the wall clock share, not the user share.
	quietU, busyU := pQuiet[0].CompletionUser(), pBusy[0].CompletionUser()
	if float64(busyU) > 1.35*float64(quietU) {
		t.Fatalf("background cycles leaked into user time: %d vs %d", busyU, quietU)
	}
	// The background stream must have touched the L2.
	if got := mBusy.Hierarchy().L2For(0).Stats().Accesses; got <= mQuiet.Hierarchy().L2For(0).Stats().Accesses {
		t.Fatal("background activity produced no cache traffic")
	}
}

func TestOverlapCapturedInSignatures(t *testing.T) {
	procs := mixByNames(t, "mcf", "libquantum")
	m := New(testConfig(), procs)
	m.SetAffinities([]int{0, 1})
	m.Run(RunOptions{Horizon: 6_000_000})
	sig := m.Unit().ContextSwitch(0)
	if len(sig.Overlap) != 2 {
		t.Fatalf("overlap vector = %v", sig.Overlap)
	}
	// mcf's footprint must overlap libquantum's core filter: both are
	// cache-filling, so the shared filter positions collide.
	if sig.Overlap[1] == 0 {
		t.Fatal("no cross-core overlap between two cache-filling processes")
	}
	// Identity: |RBV ⊕ CF| + 2·|RBV ∧ CF| = |RBV| + |CF| for any vectors.
	lhs := sig.Symbiosis[1] + 2*sig.Overlap[1]
	rhs := sig.RBV.PopCount() + m.Unit().OccupancyWeight(1)
	if lhs != rhs {
		t.Fatalf("XOR/AND identity violated: %d != %d", lhs, rhs)
	}
}

func TestPrivateL2MachinesGetPerCacheUnits(t *testing.T) {
	cfg := Config{
		Hierarchy:     cache.XeonSMPConfig().Scaled(64),
		QuantumCycles: 1_000_000,
	}
	procs := mixByNames(t, "mcf", "libquantum")
	m := New(cfg, procs)
	m.SetAffinities([]int{0, 1})
	if m.UnitFor(0) == m.UnitFor(1) {
		t.Fatal("private L2s share a signature unit")
	}
	m.Run(RunOptions{Horizon: 4_000_000})
	// Each core's unit only ever sees its own core's fills: the cross-core
	// Core Filter must be empty, so the overlap (interference) is zero —
	// correct for machines with no shared cache.
	sig := m.UnitFor(0).ContextSwitch(0)
	if sig.Overlap[1] != 0 {
		t.Fatalf("cross-core overlap %d on a private-L2 machine", sig.Overlap[1])
	}
	if m.UnitFor(1).OccupancyWeight(0) != 0 {
		t.Fatal("core 1's unit saw core 0 fills")
	}
	if m.UnitFor(0).OccupancyWeight(0) == 0 {
		t.Fatal("core 0's unit saw no fills at all")
	}
}
