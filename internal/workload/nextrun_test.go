package workload

import (
	"math/rand"
	"testing"
)

// nextOnly hides a source's NextRun, leaving the per-instruction Next view
// that AsRunSource adapts.
type nextOnly struct{ src RefSource }

func (n nextOnly) Next() Ref { return n.src.Next() }

// drainRuns consumes instr instructions of src through NextRun at seeded
// random limits in [1, 256], checks each call against the RunSource
// contract, and expands the runs into the equivalent Next stream.
func drainRuns(t *testing.T, src RunSource, instr int, seed int64) []Ref {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]Ref, 0, instr)
	for len(out) < instr {
		limit := 1 + rng.Intn(256)
		skipped, addr, mem := src.NextRun(limit)
		if skipped < 0 || (mem && skipped+1 > limit) || (!mem && skipped != limit) {
			t.Fatalf("NextRun(%d) = (%d, %#x, %v) breaks the contract", limit, skipped, addr, mem)
		}
		for i := 0; i < skipped; i++ {
			out = append(out, Ref{})
		}
		if mem {
			out = append(out, Ref{Addr: addr, Mem: true})
		}
	}
	return out[:instr]
}

// nextStream calls Next instr times.
func nextStream(src RefSource, instr int) []Ref {
	out := make([]Ref, instr)
	for i := range out {
		out[i] = src.Next()
	}
	return out
}

func sameStream(t *testing.T, name string, got, want []Ref) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: instruction %d is %+v through NextRun, %+v through Next", name, i, got[i], want[i])
		}
	}
}

// TestNextRunMatchesNext pins the contract the engine's access loop rests
// on: NextRun(limit) consumes exactly the instructions that limit calls to
// Next would, for every SPEC/PARSEC profile's thread generators and for the
// adapter AsRunSource puts around a Next-only source.
func TestNextRunMatchesNext(t *testing.T) {
	const instr = 20_000
	pool := append(SPEC2006(), PARSEC()...)
	for i, p := range pool {
		seed := uint64(1000 + i)
		runs, refs := p.NewThreads(i+1, seed, 64), p.NewThreads(i+1, seed, 64)
		adapted, adaptRefs := p.NewThreads(i+1, seed, 64), p.NewThreads(i+1, seed, 64)
		for th := range runs {
			limits := int64(seed) + int64(th)
			sameStream(t, p.Name, drainRuns(t, runs[th], instr, limits), nextStream(refs[th], instr))

			src := AsRunSource(nextOnly{adapted[th]})
			if _, ok := src.(refRuns); !ok {
				t.Fatalf("%s: AsRunSource did not wrap a Next-only source", p.Name)
			}
			sameStream(t, p.Name+" (adapter)", drainRuns(t, src, instr, limits), nextStream(adaptRefs[th], instr))
		}
	}
}

// rewindable is a Next-only source that records rewinds.
type rewindable struct {
	nextOnly
	rewinds int
}

func (r *rewindable) Rewind() bool { r.rewinds++; return true }

// TestAsRunSource pins the adapter's edges: a RunSource passes through
// unwrapped, Rewind reaches a rewindable source and reports false for one
// that cannot rewind, and a non-positive limit consumes nothing.
func TestAsRunSource(t *testing.T) {
	mk := func() *Generator {
		return NewGenerator(GeneratorConfig{Pattern: &StreamPattern{Region: 4096}, MemRatio: 0.5, Seed: 3})
	}
	gen := mk()
	if AsRunSource(gen) != RunSource(gen) {
		t.Fatal("AsRunSource wrapped a source that already implements RunSource")
	}
	rw := &rewindable{nextOnly: nextOnly{gen}}
	if r, ok := AsRunSource(rw).(Rewinder); !ok || !r.Rewind() || rw.rewinds != 1 {
		t.Fatal("adapter did not forward Rewind")
	}
	if r, ok := AsRunSource(nextOnly{gen}).(Rewinder); !ok || r.Rewind() {
		t.Fatal("adapter over a non-Rewinder must report Rewind false")
	}
	src := AsRunSource(nextOnly{mk()})
	if skipped, _, mem := src.NextRun(0); skipped != 0 || mem {
		t.Fatalf("NextRun(0) = (%d, _, %v), want (0, _, false)", skipped, mem)
	}
	sameStream(t, "after NextRun(0)", drainRuns(t, src, 64, 1), nextStream(mk(), 64))
}
