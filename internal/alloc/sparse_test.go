package alloc

import (
	"math/rand"
	"testing"

	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
)

// clusteredViews synthesizes n single-threaded views on `cores` cores in
// `clusters` interference cliques: threads of one cluster report low
// symbiosis (high interference) toward cores currently hosting their
// cluster-mates and high symbiosis toward everyone else, so a good allocator
// co-locates each cluster.
func clusteredViews(n, cores, clusters int, seed int64) []kernel.View {
	rng := rand.New(rand.NewSource(seed))
	views := make([]kernel.View, n)
	coreOf := make([]int, n)
	for i := range views {
		coreOf[i] = i % cores
	}
	for i := range views {
		sym := make([]int32, cores)
		ov := make([]int32, cores)
		for c := 0; c < cores; c++ {
			sym[c] = int32(900 + rng.Intn(100)) // high symbiosis = low interference
			ov[c] = int32(rng.Intn(3))
		}
		// Raise interference toward cores hosting cluster-mates.
		for j := range views {
			if j != i && j%clusters == i%clusters {
				sym[coreOf[j]] = int32(1 + rng.Intn(3))
				ov[coreOf[j]] = int32(200 + rng.Intn(50))
			}
		}
		views[i] = kernel.View{
			ThreadID:  i,
			ProcID:    i,
			Threads:   1,
			LastCore:  coreOf[i],
			Occupancy: 50 + rng.Intn(50),
			Symbiosis: sym,
			Overlap:   ov,
			HasSig:    true,
		}
	}
	return views
}

// checkBalanced asserts the mapping uses cores [0,cores) with sizes within
// ±1 of each other.
func checkBalanced(t *testing.T, m Mapping, cores int) {
	t.Helper()
	counts := make([]int, cores)
	for i, c := range m {
		if c < 0 || c >= cores {
			t.Fatalf("thread %d on core %d outside [0,%d)", i, c, cores)
		}
		counts[c]++
	}
	lo, hi := len(m), 0
	for _, c := range counts {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi-lo > 1 {
		t.Fatalf("unbalanced mapping: core loads %v", counts)
	}
}

// At scale (256 threads, sparsified and partitioned multilevel) every graph
// policy must produce balanced, deterministic mappings.
func TestSparsePathBalancedAndDeterministic(t *testing.T) {
	views := clusteredViews(256, 16, 16, 7)
	for _, p := range []Policy{InterferenceGraph{}, WeightedInterferenceGraph{}, TwoPhase{}} {
		m1 := p.Allocate(views, 16)
		m2 := p.Allocate(views, 16)
		if len(m1) != 256 {
			t.Fatalf("%s: mapping length %d", p.Name(), len(m1))
		}
		checkBalanced(t, m1, 16)
		if !m1.Equal(m2) {
			t.Fatalf("%s: not deterministic at scale", p.Name())
		}
	}
}

// The sparse allocator should actually find the planted interference
// structure: cluster-mates mostly co-located.
func TestSparsePathCoLocatesClusters(t *testing.T) {
	const n, cores, clusters = 128, 16, 16 // 8 threads per cluster, 8 per core
	views := clusteredViews(n, cores, clusters, 11)
	m := InterferenceGraph{}.Allocate(views, cores)
	checkBalanced(t, m, cores)
	// Count intra-cluster pairs sharing a core vs a random assignment's
	// expectation (1/cores). The planted structure should be far above it.
	same, pairs := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i%clusters == j%clusters {
				pairs++
				if m[i] == m[j] {
					same++
				}
			}
		}
	}
	if frac := float64(same) / float64(pairs); frac < 0.5 {
		t.Fatalf("only %.0f%% of cluster pairs co-located (random would give %.0f%%)",
			frac*100, 100.0/float64(cores))
	}
}

// The policies keep each thread's sparseTopM heaviest neighbors. On strongly
// clustered input that sparsification must not lose the structure: at 64
// threads the decision on the top-m graph and the partition of the dense
// (unsparsified) graph of the same weights agree on the co-location, and
// both recover the 4 planted cliques.
func TestDenseSparseAgreeOnStructure(t *testing.T) {
	views := clusteredViews(64, 4, 4, 13)
	ms := InterferenceGraph{}.Allocate(views, 4)
	checkBalanced(t, ms, 4)
	b := graph.NewBuilder(len(views), 0)
	for i := range views {
		for j := i + 1; j < len(views); j++ {
			b.Add(i, j, directedTerm(&views[i], views[j].LastCore, false)+directedTerm(&views[j], views[i].LastCore, false))
		}
	}
	md := make(Mapping, len(views))
	for core, grp := range b.Build().PartitionK(4) {
		for _, th := range grp {
			md[th] = core
		}
	}
	checkBalanced(t, md, 4)
	if !md.Canonical().Equal(ms.Canonical()) {
		t.Fatalf("dense and sparse graphs disagree on planted clusters:\ndense  %v\nsparse %v",
			md.Canonical(), ms.Canonical())
	}
	for i := range views {
		if ms[i] != ms[i%4] {
			t.Fatalf("thread %d split from its clique: %v", i, ms)
		}
	}
}

// Zero-signal views keep the current placement at scale too (96 threads on
// 8 cores).
func TestSparsePathKeepsPlacementWithoutSignal(t *testing.T) {
	views := make([]kernel.View, 96)
	for i := range views {
		views[i] = kernel.View{ThreadID: i, ProcID: i, Threads: 1, LastCore: i % 8}
	}
	m := WeightedInterferenceGraph{}.Allocate(views, 8)
	for i, c := range m {
		if c != i%8 {
			t.Fatalf("thread %d moved to %d despite zero signal", i, c)
		}
	}
}

// At scale TwoPhase must still keep each process's phase-1 groups on one
// core.
func TestTwoPhaseSparseKeepsGroupsTogether(t *testing.T) {
	const cores = 8
	rng := rand.New(rand.NewSource(17))
	var views []kernel.View
	id := 0
	// 20 processes × 4 threads = 80 threads, past the top-m edge limit.
	for p := 0; p < 20; p++ {
		for th := 0; th < 4; th++ {
			sym := make([]int32, cores)
			ov := make([]int32, cores)
			for c := range sym {
				sym[c] = int32(100 + rng.Intn(900))
				ov[c] = int32(rng.Intn(40))
			}
			views = append(views, kernel.View{
				ThreadID: id, ProcID: p, Threads: 4, LastCore: id % cores,
				Occupancy: 10 + rng.Intn(90), Symbiosis: sym, Overlap: ov, HasSig: true,
			})
			id++
		}
	}
	m := TwoPhase{}.Allocate(views, cores)
	checkBalanced(t, m, cores)

	// Recompute phase 1's grouping and assert each group landed on one core.
	for p := 0; p < 20; p++ {
		members := []int{}
		for i, v := range views {
			if v.ProcID == p {
				members = append(members, i)
			}
		}
		order := append([]int(nil), members...)
		for x := 1; x < len(order); x++ { // stable insertion sort by occupancy desc
			for y := x; y > 0 && views[order[y]].Occupancy > views[order[y-1]].Occupancy; y-- {
				order[y], order[y-1] = order[y-1], order[y]
			}
		}
		groupSize := (len(order) + cores - 1) / cores
		for rank, idx := range order {
			if rank%groupSize == 0 {
				continue
			}
			leader := order[rank-rank%groupSize]
			if m[idx] != m[leader] {
				t.Fatalf("proc %d: thread %d split from its phase-1 group (cores %d vs %d)",
					p, idx, m[idx], m[leader])
			}
		}
	}
}

// CanonicalInto with a reused buffer must not allocate, and must agree with
// the map-based reference for arbitrary labels.
func TestCanonicalIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ref := func(m Mapping) Mapping {
		rename := map[int]int{}
		out := make(Mapping, len(m))
		next := 0
		for i, c := range m {
			r, ok := rename[c]
			if !ok {
				r = next
				rename[c] = r
				next++
			}
			out[i] = r
		}
		return out
	}
	var buf Mapping
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(100)
		m := make(Mapping, n)
		for i := range m {
			switch trial % 3 {
			case 0:
				m[i] = rng.Intn(8)
			case 1:
				m[i] = rng.Intn(1000) // beyond the stack bound: map fallback
			default:
				m[i] = rng.Intn(20) - 10 // negative labels: map fallback
			}
		}
		buf = m.CanonicalInto(buf)
		if want := ref(m); !buf.Equal(want) {
			t.Fatalf("trial %d: CanonicalInto %v != reference %v (input %v)", trial, buf, want, m)
		}
		if !m.Canonical().Equal(buf) {
			t.Fatal("Canonical disagrees with CanonicalInto")
		}
	}
}

func TestCanonicalIntoZeroAllocs(t *testing.T) {
	m := make(Mapping, 32)
	for i := range m {
		m[i] = (i * 7) % 8
	}
	buf := make(Mapping, 0, len(m))
	allocs := testing.AllocsPerRun(100, func() {
		buf = m.CanonicalInto(buf)
	})
	if allocs != 0 {
		t.Fatalf("CanonicalInto allocated %.1f times per op, want 0", allocs)
	}
}

func BenchmarkCanonicalInto(b *testing.B) {
	m := make(Mapping, 32)
	for i := range m {
		m[i] = (i * 7) % 8
	}
	buf := make(Mapping, 0, len(m))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.CanonicalInto(buf)
	}
}

func BenchmarkCanonical(b *testing.B) {
	m := make(Mapping, 32)
	for i := range m {
		m[i] = (i * 7) % 8
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Canonical()
	}
}

// BenchmarkAllocateSparse measures the full policy path at scale — graph
// build plus partition on a reused Scratch — the per-quantum allocator cost
// the monitor pays.
func BenchmarkAllocateSparse(b *testing.B) {
	for _, n := range []int{256, 1024} {
		views := clusteredViews(n, 64, 32, 3)
		b.Run(policyBenchName(n), func(b *testing.B) {
			p := WeightedInterferenceGraph{}
			var s Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.AllocateScratch(views, 64, &s)
			}
		})
	}
}

func policyBenchName(n int) string {
	if n == 256 {
		return "P=256"
	}
	return "P=1024"
}
