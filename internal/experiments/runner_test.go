package experiments

import (
	"testing"

	"symbiosched/internal/alloc"
	"symbiosched/internal/workload"
)

func TestEnumerateMappings4on2(t *testing.T) {
	ms := EnumerateMappings(4, 2)
	if len(ms) != 3 {
		t.Fatalf("4 procs on 2 cores: %d mappings, want 3 (Table 1)", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if len(m) != 4 {
			t.Fatalf("mapping %v has wrong length", m)
		}
		counts := map[int]int{}
		for _, c := range m {
			counts[c]++
		}
		if counts[0] != 2 || counts[1] != 2 {
			t.Fatalf("mapping %v not balanced", m)
		}
		if seen[m.Key()] {
			t.Fatalf("duplicate mapping %v", m)
		}
		seen[m.Key()] = true
	}
}

func TestEnumerateMappingsCounts(t *testing.T) {
	// Known counts: n items on k cores, balanced set partitions.
	cases := []struct{ n, cores, want int }{
		{2, 2, 1},
		{4, 2, 3},
		{6, 2, 10}, // C(6,3)/2
		{4, 4, 1},
		{8, 4, 105}, // 8!/(2!^4 4!)
	}
	for _, tc := range cases {
		if got := len(EnumerateMappings(tc.n, tc.cores)); got != tc.want {
			t.Errorf("EnumerateMappings(%d,%d) = %d, want %d", tc.n, tc.cores, got, tc.want)
		}
	}
}

func TestEnumerateMappingsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid enumeration did not panic")
		}
	}()
	EnumerateMappings(0, 2)
}

func TestCombinations(t *testing.T) {
	cs := Combinations(4, 2)
	if len(cs) != 6 {
		t.Fatalf("C(4,2) = %d", len(cs))
	}
	if cs[0][0] != 0 || cs[0][1] != 1 {
		t.Fatalf("first combination %v", cs[0])
	}
	if Combinations(3, 5) != nil {
		t.Fatal("k>n must be nil")
	}
	if got := len(Combinations(12, 4)); got != 495 {
		t.Fatalf("C(12,4) = %d, want 495 (the paper's mix count)", got)
	}
}

func TestConfigScales(t *testing.T) {
	c := Default()
	if c.Scale().Region != 16 || c.Scale().Instr != 1 {
		t.Fatalf("default scale %+v", c.Scale())
	}
	ec := c.EngineConfig()
	if ec.Hierarchy.L2.SizeBytes != (4<<20)/16 {
		t.Fatalf("default L2 size %d", ec.Hierarchy.L2.SizeBytes)
	}
	q := Quick()
	if q.MachineDiv != 64 {
		t.Fatalf("quick div %d", q.MachineDiv)
	}
	if xc := q.engineConfig(xeon); xc.Hierarchy.SharedL2 {
		t.Fatal("Xeon config must have private L2s")
	}
	if qc := q.engineConfig(quadCore); !qc.Hierarchy.SharedL2 || qc.Hierarchy.Cores != 4 {
		t.Fatalf("quad-core config: %d cores, shared L2 %v", qc.Hierarchy.Cores, qc.Hierarchy.SharedL2)
	}
}

func mixProfiles(t testing.TB, names ...string) []workload.Profile {
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

func TestRunMappingDeterministic(t *testing.T) {
	job := mixJob{cfg: Quick(), profiles: mixProfiles(t, "povray", "gobmk")}
	a := freshRun(job, alloc.Mapping{0, 1})
	b := freshRun(job, alloc.Mapping{0, 1})
	for i := range a.UserCycles {
		if a.UserCycles[i] != b.UserCycles[i] {
			t.Fatalf("nondeterministic run: %v vs %v", a.UserCycles, b.UserCycles)
		}
	}
	if a.WallCycles == 0 {
		t.Fatal("zero wall time")
	}
}

func TestPhase1ProducesBalancedMapping(t *testing.T) {
	c := Quick()
	mix := mixProfiles(t, "mcf", "libquantum", "povray", "gobmk")
	m := c.Phase1(mix, alloc.WeightedInterferenceGraph{}, nil)
	if len(m) != 4 {
		t.Fatalf("mapping %v", m)
	}
	counts := map[int]int{}
	for _, core := range m {
		counts[core]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("phase-1 mapping %v not balanced", m)
	}
}

func TestRunMixChosenAmongCandidates(t *testing.T) {
	c := Quick()
	mix := mixProfiles(t, "mcf", "libquantum", "povray", "gobmk")
	out := c.RunMix(mix, alloc.WeightSort{}, c.candidatesFor(mix), nil)
	if out.ChosenIdx < 0 || out.ChosenIdx >= len(out.Candidates) {
		t.Fatalf("chosen index %d of %d", out.ChosenIdx, len(out.Candidates))
	}
	if len(out.Candidates) < 3 {
		t.Fatalf("only %d candidates", len(out.Candidates))
	}
	for _, cand := range out.Candidates {
		if len(cand.UserCycles) != 4 {
			t.Fatalf("candidate has %d user times", len(cand.UserCycles))
		}
		for i, u := range cand.UserCycles {
			if u == 0 {
				t.Fatalf("%s never completed under %v", out.Names[i], cand.Mapping)
			}
		}
	}
	// Improvements are well-defined and ≤ 1.
	for i := range out.Names {
		imp := out.ImprovementFor(i)
		if imp < -1 || imp > 1 {
			t.Fatalf("improbable improvement %g for %s", imp, out.Names[i])
		}
	}
}

func TestCandidatesForMultithreaded(t *testing.T) {
	c := Quick()
	mix := mixProfiles(t, "ferret", "swaptions", "canneal", "blackscholes")
	cands := c.candidatesFor(mix)
	if len(cands) < 4 {
		t.Fatalf("MT candidate space too small: %d", len(cands))
	}
	for _, m := range cands {
		if len(m) != 16 {
			t.Fatalf("thread mapping %v wrong length", m)
		}
	}
}

func TestOracleImprovement(t *testing.T) {
	o := MixOutcome{
		Names:     []string{"a", "b"},
		ChosenIdx: 1,
		Candidates: []MixResult{
			{UserCycles: []uint64{100, 50}},
			{UserCycles: []uint64{80, 50}},
			{UserCycles: []uint64{60, 50}},
		},
	}
	// For "a": worst 100, chosen 80, best 60.
	if got := o.ImprovementFor(0); got != 0.2 {
		t.Fatalf("ImprovementFor = %g", got)
	}
	if got := o.OracleImprovementFor(0); got != 0.4 {
		t.Fatalf("OracleImprovementFor = %g", got)
	}
	// For "b": flat across mappings → both zero.
	if o.ImprovementFor(1) != 0 || o.OracleImprovementFor(1) != 0 {
		t.Fatal("flat benchmark produced nonzero improvements")
	}
}

func TestBenchStatsOracleCapture(t *testing.T) {
	b := BenchStats{Improvements: []float64{0.2, 0.2}, Oracle: []float64{0.4, 0.4}}
	if got := b.OracleCapture(); got != 0.5 {
		t.Fatalf("OracleCapture = %g", got)
	}
	flat := BenchStats{Improvements: []float64{0}, Oracle: []float64{0}}
	if flat.OracleCapture() != 0 {
		t.Fatal("zero-oracle capture not 0")
	}
}
