package graph

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// bisectOracle is the exhaustive balanced MIN-CUT reference. It shares no
// code with the package: it reads a plain symmetric weight matrix and tries
// every split with node 0 on side A and |A| = ⌈n/2⌉, scanning all 2ⁿ masks
// in ascending order and keeping the first strictly smallest cut. Each cut
// sums the nonzero weights w[i][j], i < j, in row order. That is the
// package's documented tie rule and summation order, so on graphs small
// enough for the exact solver the two must agree bit for bit.
func bisectOracle(w [][]float64) (a, b []int, cut float64) {
	n := len(w)
	if n == 0 {
		return nil, nil, 0
	}
	type edge struct {
		i, j int
		w    float64
	}
	var edges []edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if w[i][j] != 0 {
				edges = append(edges, edge{i, j, w[i][j]})
			}
		}
	}
	best, bestCut := uint32(0), math.Inf(1)
	for mask := uint32(0); mask < 1<<n; mask++ {
		if mask&1 == 0 || bits.OnesCount32(mask) != (n+1)/2 {
			continue
		}
		var c float64
		for _, e := range edges {
			if mask>>e.i&1 != mask>>e.j&1 {
				c += e.w
			}
		}
		if c < bestCut {
			best, bestCut = mask, c
		}
	}
	for v := 0; v < n; v++ {
		if best>>v&1 == 1 {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	return a, b, bestCut
}

// kwayOracle is the exhaustive balanced k-way MIN-CUT reference. Like
// bisectOracle it shares no code with the package: it reads a plain
// symmetric weight matrix of any size n, enumerates every grouping of the
// nodes into k groups of ⌊n/k⌋ or ⌈n/k⌉ nodes (the envelope PartitionK and
// the repairs keep) up to relabelling (node i may open group g only once
// every group below g is open), and returns the smallest total weight
// crossing groups and the number of groupings it checked.
func kwayOracle(w [][]float64, k int) (cut float64, groupings int) {
	n := len(w)
	floor, ceil := n/k, (n+k-1)/k
	group := make([]int, n)
	counts := make([]int, k)
	cut = math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		short := 0 // nodes the groups below the floor still need
		for _, c := range counts {
			short += max(floor-c, 0)
		}
		if short > n-i {
			return
		}
		if i == n {
			groupings++
			var c float64
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					if group[a] != group[b] {
						c += w[a][b]
					}
				}
			}
			cut = math.Min(cut, c)
			return
		}
		for g := 0; g < k; g++ {
			if counts[g] == ceil {
				continue
			}
			counts[g]++
			group[i] = g
			rec(i + 1)
			counts[g]--
			if counts[g] == 0 {
				break
			}
		}
	}
	rec(0)
	return cut, groupings
}

// oracleMatrix draws a symmetric weight matrix of one of five shapes: dense
// continuous weights, a sparse graph with zero pairs, small integers (many
// equal cuts, so the tie rule decides), sums of two reciprocals from
// {1/3, 1/7, 1/11} like the interference-graph policy's weights (many cuts
// equal in exact arithmetic, so which one is smallest in floating point
// depends on the summation order), and signed weights (no partial cut may
// be taken as a lower bound).
func oracleMatrix(rng *rand.Rand, n, shape int) [][]float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var x float64
			switch shape {
			case 0:
				x = rng.Float64() * 10
			case 1:
				if rng.Intn(3) == 0 {
					x = 0.01 + rng.Float64()*10
				}
			case 2:
				x = float64(rng.Intn(3))
			case 3:
				x = 1/float64(3+4*rng.Intn(3)) + 1/float64(3+4*rng.Intn(3))
			default:
				x = rng.Float64()*10 - 5
			}
			w[i][j], w[j][i] = x, x
		}
	}
	return w
}

// sparseOf builds the unsparsified graph of a weight matrix.
func sparseOf(w [][]float64) *Sparse {
	b := NewBuilder(len(w), 0)
	for i := range w {
		for j := i + 1; j < len(w); j++ {
			b.Add(i, j, w[i][j])
		}
	}
	return b.Build()
}

// matrixCut sums the matrix weights crossing groups a and b.
func matrixCut(w [][]float64, a, b []int) float64 {
	var c float64
	for _, i := range a {
		for _, j := range b {
			c += w[i][j]
		}
	}
	return c
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExactBisectMatchesOracle: up to 12 nodes, PartitionK(2) must return
// the oracle's split, and therefore the same cut bit for bit, on every
// matrix shape, ties included.
func TestExactBisectMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for n := 0; n <= 12; n++ {
		for trial := 0; trial < 25; trial++ {
			w := oracleMatrix(rng, n, trial%5)
			wa, wb, wcut := bisectOracle(w)
			groups := sparseOf(w).PartitionK(2)
			if !sameInts(groups[0], wa) || !sameInts(groups[1], wb) {
				t.Fatalf("n=%d trial %d: PartitionK(2) = %v | %v, oracle %v | %v",
					n, trial, groups[0], groups[1], wa, wb)
			}
			if n > 0 {
				if got := sparseOf(w).CutWeight(groups[0], groups[1]); math.Abs(got-wcut) > 1e-9 {
					t.Fatalf("n=%d trial %d: cut %g, oracle %g", n, trial, got, wcut)
				}
			}
		}
	}
}

// TestPartitionK4Regret records how far hierarchical MIN-CUT — bisect, then
// bisect each half, as the quad-core study allocates — lands from the
// optimal balanced 4-way cut. On 200 seeded complete 8-node graphs (dense
// continuous weights, and sums of two reciprocals like the policy's, with
// many ties) PartitionK(4) must return four pairs, never cut below the
// exhaustive optimum over all 105 groupings, and keep its record: 78 of the
// 200 cuts land above the optimum, the worst by 5.96% and the mean by 0.67%.
func TestPartitionK4Regret(t *testing.T) {
	const n, k, trials = 8, 4, 200
	rng := rand.New(rand.NewSource(2011))
	p := NewPartitioner()
	var worst, sum float64
	misses := 0
	for trial := 0; trial < trials; trial++ {
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				x := 0.01 + rng.Float64()*10
				if trial%2 == 1 {
					x = 1/float64(3+4*rng.Intn(3)) + 1/float64(3+4*rng.Intn(3))
				}
				w[i][j], w[j][i] = x, x
			}
		}
		opt, groupings := kwayOracle(w, k)
		if groupings != 105 {
			t.Fatalf("oracle checked %d groupings of 8 nodes into 4 pairs, want 105", groupings)
		}
		groups := p.PartitionK(sparseOf(w), k)
		group := make([]int, n)
		for g, members := range groups {
			if len(members) != n/k {
				t.Fatalf("trial %d: unbalanced groups %v", trial, groups)
			}
			for _, v := range members {
				group[v] = g
			}
		}
		var cut float64
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if group[a] != group[b] {
					cut += w[a][b]
				}
			}
		}
		if cut < opt-1e-9 {
			t.Fatalf("trial %d: cut %g below the exhaustive optimum %g", trial, cut, opt)
		}
		regret := (cut - opt) / opt
		if regret > 1e-12 {
			misses++
		}
		worst = math.Max(worst, regret)
		sum += regret
	}
	mean := sum / trials
	t.Logf("hierarchical 4-way regret over %d graphs: %d above the optimum, worst %.17g, mean %.17g",
		trials, misses, worst, mean)
	const wantMisses, wantWorst, wantMean = 78, 0.059574468085106559, 0.0066954637593357302
	if misses != wantMisses || math.Abs(worst-wantWorst) > 1e-12 || math.Abs(mean-wantMean) > 1e-12 {
		t.Fatalf("%d graphs above the optimum, regret worst %.12f mean %.12f; recorded %d, %.12f, %.12f",
			misses, worst, mean, wantMisses, wantWorst, wantMean)
	}
}

// TestRepairRegret records how far the churn event path lands from an
// exhaustive re-partition, as TestPartitionK4Regret does for PartitionK.
// Each of 200 seeded trials per k (k = 2 and 4; complete graphs of dense
// continuous weights, or of reciprocal sums with many ties) partitions 5 to
// 9 nodes with NewPartition and then applies four events on one
// Partitioner: an arrival adjacent to every live node through
// InsertAndRepair, or the departure of a random live node through
// RemoveAndRepair, keeping between k and 10 nodes alive. After each event
// the cut, recomputed from the matrix over the live nodes, must equal the
// partition's bookkeeping and never fall below the exhaustive optimum over
// the ⌊n/k⌋..⌈n/k⌉ envelope. The regret includes what the initial
// partition left. Its record: at k = 2, 30 of 391 arrivals land above the
// optimum (worst 8.96%, mean 0.20%) and 24 of 409 departures (7.56%,
// 0.17%); at k = 4, 118 of 399 arrivals (5.93%, 0.47%) and 73 of 401
// departures (11.09%, 0.35%).
func TestRepairRegret(t *testing.T) {
	const trials, events = 200, 4
	type key struct {
		k    int
		kind string
	}
	type record struct {
		events, misses int
		worst, sum     float64
	}
	recorded := map[key]record{}
	rng := rand.New(rand.NewSource(2027))
	p := NewPartitioner()
	weight := func(trial int) float64 {
		if trial%2 == 1 {
			return 1/float64(3+4*rng.Intn(3)) + 1/float64(3+4*rng.Intn(3))
		}
		return 0.01 + rng.Float64()*10
	}
	for _, k := range []int{2, 4} {
		for trial := 0; trial < trials; trial++ {
			n := 5 + rng.Intn(5)
			w := make([][]float64, n)
			for i := range w {
				w[i] = make([]float64, n)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					x := weight(trial)
					w[i][j], w[j][i] = x, x
				}
			}
			s := sparseOf(w)
			pt := s.NewPartition(k)
			for e := 0; e < events; e++ {
				kind := "remove"
				if s.Alive() < 10 && (s.Alive() <= k || rng.Intn(2) == 0) {
					kind = "insert"
					var nbrs []int32
					var wts []float64
					for u := 0; u < s.Len(); u++ {
						if !s.Removed(u) {
							nbrs, wts = append(nbrs, int32(u)), append(wts, weight(trial))
						}
					}
					p.InsertAndRepair(s, pt, nbrs, wts)
				} else {
					v := rng.Intn(s.Len())
					for s.Removed(v) {
						v = (v + 1) % s.Len()
					}
					p.RemoveAndRepair(s, pt, v)
				}
				var live []int
				for v := 0; v < s.Len(); v++ {
					if !s.Removed(v) {
						live = append(live, v)
					}
				}
				m := make([][]float64, len(live))
				var cut float64
				for a, va := range live {
					m[a] = make([]float64, len(live))
					for b, vb := range live {
						m[a][b] = s.Weight(va, vb)
						if a < b && pt.Group(va) != pt.Group(vb) {
							cut += m[a][b]
						}
					}
				}
				if !approxEq(cut, pt.Cut()) {
					t.Fatalf("k=%d trial %d event %d: cut %g, bookkeeping %g", k, trial, e, cut, pt.Cut())
				}
				opt, _ := kwayOracle(m, k)
				if cut < opt-1e-9 {
					t.Fatalf("k=%d trial %d event %d (%s): cut %g below the exhaustive optimum %g", k, trial, e, kind, cut, opt)
				}
				r := recorded[key{k, kind}]
				regret := (cut - opt) / opt
				r.events++
				if regret > 1e-12 {
					r.misses++
				}
				r.worst = math.Max(r.worst, regret)
				r.sum += regret
				recorded[key{k, kind}] = r
			}
		}
	}
	for _, want := range []struct {
		key
		events, misses int
		worst, mean    float64
	}{
		{key{2, "insert"}, 391, 30, 0.089596895996102072, 0.0020010967258402858},
		{key{2, "remove"}, 409, 24, 0.075590438582774325, 0.0016840114186180415},
		{key{4, "insert"}, 399, 118, 0.059299191374663142, 0.0046787804269868803},
		{key{4, "remove"}, 401, 73, 0.11086474501108662, 0.0034512196276554707},
	} {
		r := recorded[want.key]
		mean := r.sum / float64(r.events)
		t.Logf("k=%d %s: %d events, %d above the optimum, regret worst %.17g, mean %.17g",
			want.k, want.kind, r.events, r.misses, r.worst, mean)
		if r.events != want.events || r.misses != want.misses || math.Abs(r.worst-want.worst) > 1e-12 || math.Abs(mean-want.mean) > 1e-12 {
			t.Errorf("k=%d %s: %d events, %d above the optimum, regret worst %.12f mean %.12f; recorded %d, %d, %.12f, %.12f",
				want.k, want.kind, r.events, r.misses, r.worst, mean, want.events, want.misses, want.worst, want.mean)
		}
	}
}
