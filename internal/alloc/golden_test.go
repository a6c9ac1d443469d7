package alloc

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"symbiosched/internal/kernel"
)

// goldenViews draws one seeded monitor snapshot of n threads on k cores.
// The draw mixes single- and multi-threaded processes, missing signatures,
// short per-core vectors, unplaced threads and small metric ranges (so equal
// cuts are common and the tie rule decides), and about one set in eight
// carries no signal at all.
func goldenViews(rng *rand.Rand, n, k int) []kernel.View {
	zero := rng.Intn(8) == 0
	balanced := rng.Intn(2) == 0
	wide := rng.Intn(3) == 0 // metric range: wide values, or few distinct ones
	views := make([]kernel.View, 0, n)
	for proc := 0; len(views) < n; proc++ {
		threads := 1
		if rng.Intn(3) == 0 {
			threads = min(2+rng.Intn(4), n-len(views))
		}
		for t := 0; t < threads; t++ {
			i := len(views)
			v := kernel.View{
				ThreadID: i, ProcID: proc, Threads: threads,
				LastCore: rng.Intn(k), Occupancy: rng.Intn(6),
				HasSig: rng.Intn(6) != 0,
			}
			if balanced {
				v.LastCore = i % k
			} else if rng.Intn(20) == 0 {
				v.LastCore = -1
			}
			if wide {
				v.Occupancy = rng.Intn(400)
			}
			width := k
			if rng.Intn(10) == 0 {
				width = rng.Intn(k)
			}
			v.Symbiosis = make([]int32, width)
			v.Overlap = make([]int32, width)
			for c := 0; c < width && !zero; c++ {
				if wide {
					v.Symbiosis[c], v.Overlap[c] = int32(rng.Intn(1000)), int32(rng.Intn(300))
				} else {
					v.Symbiosis[c], v.Overlap[c] = int32(rng.Intn(5)), int32(rng.Intn(4))
				}
			}
			views = append(views, v)
		}
	}
	return views
}

// TestPolicyDecisionsGolden pins every graph policy's decision, mapping
// labels included, on a seeded corpus of snapshots spanning n = 1..17
// threads and k ∈ {1, 2, 4, 8} cores. The digests were recorded from the
// dense-matrix allocator that preceded the single sparse path, so they hold
// the exact enumerator's tie rule and summation order to that decision bit
// for bit. Each policy's scratch path must reproduce its Allocate on one
// Scratch reused across all shapes and policies.
func TestPolicyDecisionsGolden(t *testing.T) {
	want := map[string]string{
		"interference-graph":          "f5a357907dc269e8",
		"weighted-interference-graph": "62c438737693bdc2",
		"two-phase-multithreaded":     "3bda4088302720c4",
	}
	rng := rand.New(rand.NewSource(20261017))
	policies := []ScratchPolicy{InterferenceGraph{}, WeightedInterferenceGraph{}, TwoPhase{}}
	digests := make([]uint64, len(policies))
	for i := range digests {
		digests[i] = fnv.New64a().Sum64()
	}
	var s Scratch
	sets := 0
	for round := 0; round < 8; round++ {
		for n := 1; n <= 17; n++ {
			for _, k := range []int{1, 2, 4, 8} {
				views := goldenViews(rng, n, k)
				sets++
				for pi, p := range policies {
					m := p.Allocate(views, k)
					if len(m) != n {
						t.Fatalf("%s n=%d k=%d: mapping length %d", p.Name(), n, k, len(m))
					}
					h := fnv.New64a()
					fmt.Fprintf(h, "%x %v", digests[pi], []int(m))
					digests[pi] = h.Sum64()
					if ms := p.AllocateScratch(views, k, &s); !ms.Equal(m) {
						t.Fatalf("%s n=%d k=%d: AllocateScratch %v != Allocate %v", p.Name(), n, k, ms, m)
					}
				}
			}
		}
	}
	for pi, p := range policies {
		if got := fmt.Sprintf("%016x", digests[pi]); got != want[p.Name()] {
			t.Errorf("%s: decision digest %s over %d snapshots, want %s", p.Name(), got, sets, want[p.Name()])
		}
	}
}
