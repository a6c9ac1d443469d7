package experiments

import (
	"strings"
	"testing"

	"symbiosched/internal/bloom"
	"symbiosched/internal/cache"
)

func TestFigure1ShapeMatchesPaper(t *testing.T) {
	res := Figure1(Quick())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	a, b := res.Rows[0], res.Rows[1]
	// Both patterns miss ~100% of the time.
	if a.MissRate < 0.99 || b.MissRate < 0.99 {
		t.Fatalf("miss rates %.3f/%.3f, want ≈1.0", a.MissRate, b.MissRate)
	}
	// A touches 1 set; B touches 4× as many (footprints differ despite
	// identical miss rates — the paper's point).
	if a.SetsTouched != 1 {
		t.Fatalf("A touched %d sets, want 1", a.SetsTouched)
	}
	if b.SetsTouched != 4*a.SetsTouched {
		t.Fatalf("B touched %d sets, want %d", b.SetsTouched, 4*a.SetsTouched)
	}
	if !strings.Contains(res.Table().String(), "miss rate") {
		t.Fatal("table render broken")
	}
}

func TestFigure5OccupancyTracksFootprintBetterThanMisses(t *testing.T) {
	c := Quick()
	res := Figure5(c)
	if res.Footprint.Len() < 5 {
		t.Fatalf("only %d samples", res.Footprint.Len())
	}
	if res.OccupancyCorr < 0.6 {
		t.Fatalf("occupancy/footprint correlation %.3f too weak", res.OccupancyCorr)
	}
	if res.OccupancyCorr <= res.MissCorr {
		t.Fatalf("occupancy corr %.3f not above miss corr %.3f (the Fig 2/5 claim)",
			res.OccupancyCorr, res.MissCorr)
	}
	if !strings.Contains(res.Render(), "occupancy") {
		t.Fatal("render broken")
	}
}

func TestTable1Shape(t *testing.T) {
	res := table1Runs().res[0]
	if len(res.Mappings) != 3 || len(res.Times) != 3 {
		t.Fatalf("mappings = %d", len(res.Mappings))
	}
	for m := range res.Times {
		if len(res.Times[m]) != 4 {
			t.Fatalf("mapping %d has %d times", m, len(res.Times[m]))
		}
	}
	if res.ChosenLabel == "" {
		t.Fatal("no chosen mapping")
	}
	// povray (A) must be nearly schedule-insensitive: spread of its three
	// times within 15%.
	var mn, mx uint64 = ^uint64(0), 0
	for m := range res.Times {
		v := res.Times[m][0]
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if float64(mx)/float64(mn) > 1.15 {
		t.Fatalf("povray schedule-sensitive: %.3f spread", float64(mx)/float64(mn))
	}
	if !strings.Contains(res.Table().String(), "povray") {
		t.Fatal("table render broken")
	}
}

func TestMappingLabel(t *testing.T) {
	if got := MappingLabel([]int{0, 0, 1, 1}); got != "AB & CD" {
		t.Fatalf("label = %q", got)
	}
	if got := MappingLabel([]int{0, 1, 1, 0}); got != "AD & BC" {
		t.Fatalf("label = %q", got)
	}
}

// The smallest end-to-end sweep: a 4-benchmark pool (one mix) through the
// full Fig 10 machinery.
func TestSweepSingleMix(t *testing.T) {
	c := Quick()
	pool := mixProfiles(t, "mcf", "libquantum", "povray", "gobmk")
	rep := Figure10(c, pool)
	if rep.Mixes != 1 {
		t.Fatalf("mixes = %d", rep.Mixes)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("benchmarks = %d", len(rep.Benchmarks))
	}
	// mcf must benefit substantially; povray must not.
	byName := map[string]BenchStats{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	if byName["mcf"].Max() < 0.10 {
		t.Fatalf("mcf max improvement %.3f too small", byName["mcf"].Max())
	}
	if byName["povray"].Max() > 0.10 {
		t.Fatalf("povray max improvement %.3f too large for compute-bound", byName["povray"].Max())
	}
	if byName["mcf"].Max() <= byName["povray"].Max() {
		t.Fatal("mcf does not dominate povray")
	}
	tbl := rep.Table().String()
	if !strings.Contains(tbl, "OVERALL") {
		t.Fatal("table render broken")
	}
}

func TestFigure11LowerThanNative(t *testing.T) {
	c := Quick()
	pool := mixProfiles(t, "mcf", "libquantum", "povray", "gobmk")
	native := Figure10(c, pool)
	vm := Figure11(c, pool)
	if !vm.Virtual {
		t.Fatal("Figure11 not marked virtual")
	}
	byName := func(r ImprovementReport, n string) BenchStats {
		for _, b := range r.Benchmarks {
			if b.Name == n {
				return b
			}
		}
		t.Fatalf("missing %s", n)
		return BenchStats{}
	}
	nm, vmm := byName(native, "mcf"), byName(vm, "mcf")
	if vmm.Max() <= 0 {
		t.Fatalf("VM mcf improvement %.3f vanished", vmm.Max())
	}
	if vmm.Max() >= nm.Max() {
		t.Fatalf("VM mcf improvement %.3f not below native %.3f (Fig 11 vs Fig 10)",
			vmm.Max(), nm.Max())
	}
}

func TestFigure12MultiThreaded(t *testing.T) {
	c := Quick()
	pool := mixProfiles(t, "ferret", "swaptions", "canneal", "blackscholes")
	rep := Figure12(c, pool)
	if rep.Mixes != 1 || len(rep.Benchmarks) != 4 {
		t.Fatalf("report shape: %d mixes, %d benchmarks", rep.Mixes, len(rep.Benchmarks))
	}
	for _, b := range rep.Benchmarks {
		if b.Max() < -0.05 {
			t.Fatalf("%s regressed %.3f under the two-phase policy", b.Name, b.Max())
		}
	}
}

func TestOverheads(t *testing.T) {
	res := Overheads(2)
	if res.SoftwareWordsPerContext != 4 {
		t.Fatalf("software words = %d, want 2+N = 4", res.SoftwareWordsPerContext)
	}
	if res.RBVBytes != 8192 {
		t.Fatalf("RBV bytes = %d, want 65536/8", res.RBVBytes)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Fractions fall with sampling; 25% sampling is 1/4 of unsampled.
	if res.Rows[2].SampleRate != 4 {
		t.Fatalf("third row rate = %d", res.Rows[2].SampleRate)
	}
	if got, want := res.Rows[2].Fraction, res.Rows[0].Fraction/4; got != want {
		t.Fatalf("25%% sampling fraction %g != unsampled/4 %g", got, want)
	}
	// The paper quotes ~2.13% at 25% sampling with its (stated) accounting;
	// our storage model gives the same order of magnitude.
	if res.Rows[2].Fraction <= 0 || res.Rows[2].Fraction > 0.05 {
		t.Fatalf("sampled overhead fraction %g implausible", res.Rows[2].Fraction)
	}
	if !strings.Contains(res.Table().String(), "sampling") {
		t.Fatal("table render broken")
	}
}

func TestWithHash(t *testing.T) {
	c := Quick().withHash(bloom.HashPresence)
	if c.Signature == nil || c.Signature.Hash != bloom.HashPresence || c.Signature.CounterBits != 1 {
		t.Fatalf("withHash(presence) = %+v", c.Signature)
	}
	ec := c.EngineConfig()
	if ec.Signature.Hash != bloom.HashPresence {
		t.Fatal("engine config did not inherit hash override")
	}
}

func TestQuadCoreExtension(t *testing.T) {
	res := quadRuns().res[0]
	if len(res.Names) != 8 {
		t.Fatalf("names = %v", res.Names)
	}
	if len(res.Chosen) != 8 {
		t.Fatalf("chosen = %v", res.Chosen)
	}
	counts := map[int]int{}
	for _, core := range res.Chosen {
		counts[core]++
	}
	if len(counts) != 4 {
		t.Fatalf("chosen mapping uses %d cores, want 4: %v", len(counts), res.Chosen)
	}
	for core, n := range counts {
		if n != 2 {
			t.Fatalf("core %d has %d procs: %v", core, n, res.Chosen)
		}
	}
	if res.ChosenIdx < 0 || res.ChosenIdx >= len(res.Candidates) {
		t.Fatalf("chosen index %d", res.ChosenIdx)
	}
	// Improvements must be well-defined; the heavy benchmarks should not
	// regress versus the worst sampled grouping.
	for i, n := range res.Names {
		imp := res.ImprovementFor(i)
		if imp < -0.5 || imp > 1 {
			t.Fatalf("%s improvement %.3f implausible", n, imp)
		}
	}
	if !strings.Contains(res.Table().String(), "Quad-core") {
		t.Fatal("table render broken")
	}
}

func TestJainIndex(t *testing.T) {
	if JainIndex(nil) != 0 {
		t.Fatal("empty Jain != 0")
	}
	if got := JainIndex([]float64{2, 2, 2}); got != 1 {
		t.Fatalf("equal allocations Jain = %g", got)
	}
	uneven := JainIndex([]float64{1, 0, 0, 0})
	if uneven != 0.25 {
		t.Fatalf("degenerate Jain = %g, want 1/n", uneven)
	}
	if JainIndex([]float64{0, 0}) != 0 {
		t.Fatal("all-zero Jain != 0")
	}
}

func TestFairnessStudy(t *testing.T) {
	res := fairnessRuns().res[0]
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	chosenRows := 0
	for _, row := range res.Rows {
		if row.Chosen {
			chosenRows++
		}
		if row.Jain <= 0 || row.Jain > 1 {
			t.Fatalf("Jain index %g out of range", row.Jain)
		}
		for _, s := range row.Slowdowns {
			if s < 0.95 {
				t.Fatalf("slowdown %g below 1: paired runs cannot beat standalone", s)
			}
		}
	}
	if chosenRows != 1 {
		t.Fatalf("%d rows marked chosen", chosenRows)
	}
	// The chosen mapping's fairness must be at least that of the worst row.
	var chosenJain, minJain float64 = 0, 2
	for _, row := range res.Rows {
		if row.Chosen {
			chosenJain = row.Jain
		}
		if row.Jain < minJain {
			minJain = row.Jain
		}
	}
	if chosenJain < minJain-1e-9 {
		t.Fatalf("chosen mapping is the least fair: %g < %g", chosenJain, minJain)
	}
	if !strings.Contains(res.Table().String(), "Jain") {
		t.Fatal("table render broken")
	}
}

func TestFigure5TLBMissesAlsoPoorProxy(t *testing.T) {
	res := Figure5(Quick())
	if res.TLBMisses.Len() != res.Footprint.Len() {
		t.Fatalf("TLB series length %d != footprint %d", res.TLBMisses.Len(), res.Footprint.Len())
	}
	// §2.2: "Other metrics such as TLB misses or page faults have similar
	// problems" — the TLB-miss correlation must be well below the occupancy
	// weight's.
	if res.TLBCorr >= res.OccupancyCorr-0.2 {
		t.Fatalf("TLB correlation %.3f too close to occupancy %.3f", res.TLBCorr, res.OccupancyCorr)
	}
}

func TestAblateSignatureAndReplacement(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation runs the full two-phase flow")
	}
	base := AblateSignature(Quick(), "base", nil)
	if base.Label != "base" {
		t.Fatalf("label = %q", base.Label)
	}
	if base.McfImprovement < 0.10 {
		t.Fatalf("baseline mcf improvement %.3f too small", base.McfImprovement)
	}
	if base.MeanImprovement <= 0 {
		t.Fatalf("baseline mean improvement %.3f", base.MeanImprovement)
	}
	// Random replacement must preserve the bulk of the gain (the scheme
	// does not depend on LRU).
	rnd := AblateReplacement(Quick(), cache.Random)
	if rnd.McfImprovement < base.McfImprovement/2 {
		t.Fatalf("random replacement lost the gain: %.3f vs %.3f",
			rnd.McfImprovement, base.McfImprovement)
	}
}

func TestFigure3MatrixShape(t *testing.T) {
	if testing.Short() {
		t.Skip("pairwise sweep is slow")
	}
	res := fig3bRuns().res[0]
	if len(res.Names) != 12 || len(res.Matrix) != 12 {
		t.Fatalf("matrix shape %d×%d", len(res.Names), len(res.Matrix))
	}
	for i := range res.Matrix {
		if res.Matrix[i][i] != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
	}
	// The worst-case rows must agree with the matrix maxima.
	byName := map[string]PairDegradation{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	for i, n := range res.Names {
		var max float64
		for j := range res.Names {
			if res.Matrix[i][j] > max {
				max = res.Matrix[i][j]
			}
		}
		if byName[n].Degradation != max {
			t.Fatalf("%s: row degradation %.3f != matrix max %.3f",
				n, byName[n].Degradation, max)
		}
	}
	if !strings.Contains(res.MatrixTable().String(), "matrix") {
		t.Fatal("matrix table render broken")
	}
}
