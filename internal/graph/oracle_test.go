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
// symmetric weight matrix (n divisible by k), enumerates every grouping of
// the nodes into k groups of n/k up to relabelling (node i may open group g
// only once every group below g is open), and returns the smallest total
// weight crossing groups and the number of groupings it checked.
func kwayOracle(w [][]float64, k int) (cut float64, groupings int) {
	n := len(w)
	group := make([]int, n)
	counts := make([]int, k)
	cut = math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
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
			if counts[g] == n/k {
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
