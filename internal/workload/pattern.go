package workload

import (
	"fmt"
	"math/bits"
)

// lineIn maps 64 random bits to a line-aligned offset within a region of
// `lines` cache lines using the multiply-shift range reduction (the high word
// of x·lines): one multiply instead of the hardware divide that `x % lines`
// costs, on the hottest address-generation path.
//
// Determinism note (PR 1): this changes which offset a given random draw maps
// to compared with the old `%` reduction, so address sequences from
// RandomPattern/HotspotPattern differ from pre-PR-1 builds. The distribution
// is at least as uniform (multiply-shift has strictly smaller bias than
// modulo for non-power-of-two ranges), and all paper-shape contracts were
// re-verified after the switch (see EXPERIMENTS.md, "Determinism and the
// fixed-point generator").
func lineIn(x, lines uint64) uint64 {
	hi, _ := bits.Mul64(x, lines)
	return hi * 64
}

// Pattern generates address offsets within a benchmark's data region. A
// Pattern carries its own cursor state; Clone produces an independent
// instance for another thread.
type Pattern interface {
	// Next returns the next byte offset accessed within the region.
	Next(r *Rand) uint64
	// Footprint returns the region size in bytes the pattern roams over.
	Footprint() uint64
	// Clone returns an independent copy with the same parameters and a
	// reset cursor.
	Clone() Pattern
	// Reset rewinds the pattern's cursor to its initial state in place,
	// keeping allocations (a ChasePattern keeps its permutation): after
	// Reset the pattern emits the same offset sequence as a fresh Clone.
	// Simulation arenas use this to replay a workload without rebuilding
	// it.
	Reset()
}

// StridePattern walks a region with a fixed stride, wrapping around — the
// Fig 1 access shape. A large stride touches few cache sets (small
// footprint) while still missing every time; a small stride covers many.
type StridePattern struct {
	Region uint64 // region size in bytes
	Stride uint64 // bytes between consecutive accesses
	pos    uint64
}

// Next returns the next strided offset.
func (p *StridePattern) Next(r *Rand) uint64 {
	off := p.pos
	p.pos += p.Stride
	if p.pos >= p.Region {
		p.pos -= p.Region
	}
	return off
}

// Footprint returns the region size.
func (p *StridePattern) Footprint() uint64 { return p.Region }

// Clone returns a reset copy.
func (p *StridePattern) Clone() Pattern { return &StridePattern{Region: p.Region, Stride: p.Stride} }

// Reset rewinds the walk to the region start.
func (p *StridePattern) Reset() { p.pos = 0 }

// StreamPattern scans a region sequentially line by line, wrapping — the
// libquantum/milc shape: near-100% miss rate on a large array with no reuse
// inside the cache but a large, continuously refreshed footprint.
type StreamPattern struct {
	Region uint64
	Step   uint64 // bytes per access; 0 means 64 (one line)
	pos    uint64
}

// Next returns the next sequential offset.
func (p *StreamPattern) Next(r *Rand) uint64 {
	step := p.Step
	if step == 0 {
		step = 64
	}
	off := p.pos
	p.pos += step
	if p.pos >= p.Region {
		p.pos = 0
	}
	return off
}

// Footprint returns the region size.
func (p *StreamPattern) Footprint() uint64 { return p.Region }

// Clone returns a reset copy.
func (p *StreamPattern) Clone() Pattern { return &StreamPattern{Region: p.Region, Step: p.Step} }

// Reset rewinds the scan to the region start.
func (p *StreamPattern) Reset() { p.pos = 0 }

// RandomPattern accesses uniformly random lines within its working set —
// the mcf/omnetpp shape when the set exceeds the cache: high miss rate,
// footprint as large as the cache allows.
type RandomPattern struct {
	Region uint64
}

// Next returns a uniformly random line-aligned offset.
func (p *RandomPattern) Next(r *Rand) uint64 {
	return lineIn(r.Uint64(), p.Region/64)
}

// Footprint returns the region size.
func (p *RandomPattern) Footprint() uint64 { return p.Region }

// Clone returns a copy (RandomPattern is stateless).
func (p *RandomPattern) Clone() Pattern { return &RandomPattern{Region: p.Region} }

// Reset is a no-op (RandomPattern is stateless).
func (p *RandomPattern) Reset() {}

// HotspotPattern models loop-nest locality: a fraction Hot of accesses go to
// a small hot region, the rest roam a colder large region. The
// gcc/perlbench/bzip2 shape — moderate footprint, moderate reuse.
type HotspotPattern struct {
	HotRegion  uint64  // size of the hot region in bytes
	ColdRegion uint64  // size of the cold region in bytes
	Hot        float64 // fraction of accesses to the hot region

	hotThresh   Threshold // lazily derived Q53 threshold for Hot
	threshValid bool
}

// Next returns a hot- or cold-region offset.
func (p *HotspotPattern) Next(r *Rand) uint64 {
	if !p.threshValid {
		p.hotThresh, p.threshValid = NewThreshold(p.Hot), true
	}
	if r.Below(p.hotThresh) {
		return lineIn(r.Uint64(), p.HotRegion/64)
	}
	return p.HotRegion + lineIn(r.Uint64(), p.ColdRegion/64)
}

// Footprint returns hot+cold region size.
func (p *HotspotPattern) Footprint() uint64 { return p.HotRegion + p.ColdRegion }

// Clone returns a copy (HotspotPattern is stateless).
func (p *HotspotPattern) Clone() Pattern {
	return &HotspotPattern{HotRegion: p.HotRegion, ColdRegion: p.ColdRegion, Hot: p.Hot}
}

// Reset is a no-op (the lazily derived threshold is pure parameter cache).
func (p *HotspotPattern) Reset() {}

// ChasePattern models a dependent pointer chase through a shuffled
// permutation of the region's lines (the mcf shape: serialised misses over a
// huge working set). The permutation is a single cycle (Sattolo's
// algorithm), so the walk provably touches every line of the region before
// repeating — the footprint is the whole region. It is generated lazily from
// the pattern's own seed so Clone yields an identical walk.
type ChasePattern struct {
	Region uint64
	Seed   uint64
	perm   []uint32
	cur    uint32
}

// Next follows the permutation one step.
func (p *ChasePattern) Next(r *Rand) uint64 {
	if p.perm == nil {
		lines := p.Region / 64
		p.perm = make([]uint32, lines)
		for i := range p.perm {
			p.perm[i] = uint32(i)
		}
		// Sattolo's algorithm: a uniformly random cyclic permutation with
		// exactly one cycle covering all lines.
		pr := NewRand(p.Seed)
		for i := len(p.perm) - 1; i > 0; i-- {
			j := pr.Intn(i)
			p.perm[i], p.perm[j] = p.perm[j], p.perm[i]
		}
	}
	p.cur = p.perm[p.cur]
	return uint64(p.cur) * 64
}

// Footprint returns the region size.
func (p *ChasePattern) Footprint() uint64 { return p.Region }

// Clone returns a reset copy with the same permutation seed.
func (p *ChasePattern) Clone() Pattern { return &ChasePattern{Region: p.Region, Seed: p.Seed} }

// Reset rewinds the chase to line 0, keeping the (seed-deterministic)
// permutation — the arena-reuse payoff: no re-shuffle, no reallocation.
func (p *ChasePattern) Reset() { p.cur = 0 }

// MixPattern routes accesses between two sub-patterns: a fraction AFrac go
// to A, the rest to B placed BOffset bytes above A's region. It generalises
// HotspotPattern to arbitrary sub-pattern shapes (e.g. libquantum's small
// reused table plus a long sequential sweep).
type MixPattern struct {
	A, B    Pattern
	AFrac   float64
	BOffset uint64

	aThresh     Threshold // lazily derived Q53 threshold for AFrac
	threshValid bool
}

// Next returns an offset from A or B.
func (p *MixPattern) Next(r *Rand) uint64 {
	if !p.threshValid {
		p.aThresh, p.threshValid = NewThreshold(p.AFrac), true
	}
	if r.Below(p.aThresh) {
		return p.A.Next(r)
	}
	return p.BOffset + p.B.Next(r)
}

// Footprint returns the combined extent of both sub-regions.
func (p *MixPattern) Footprint() uint64 { return p.BOffset + p.B.Footprint() }

// Clone returns a reset deep copy.
func (p *MixPattern) Clone() Pattern {
	return &MixPattern{A: p.A.Clone(), B: p.B.Clone(), AFrac: p.AFrac, BOffset: p.BOffset}
}

// Reset rewinds both sub-patterns.
func (p *MixPattern) Reset() {
	p.A.Reset()
	p.B.Reset()
}

// PhasedPattern alternates between sub-patterns, spending OpsPerPhase
// accesses in each before moving to the next (cyclically). It reproduces the
// growing/shrinking footprint of the aim9_disk example in Fig 2/5, which
// miss counters fail to track.
type PhasedPattern struct {
	Phases      []Pattern
	OpsPerPhase uint64
	cur         int
	opsLeft     uint64
}

// Next returns the next offset from the current phase.
func (p *PhasedPattern) Next(r *Rand) uint64 {
	if len(p.Phases) == 0 {
		panic("workload: PhasedPattern with no phases")
	}
	if p.opsLeft == 0 {
		p.opsLeft = p.OpsPerPhase
		p.cur = (p.cur + 1) % len(p.Phases)
	}
	p.opsLeft--
	return p.Phases[p.cur].Next(r)
}

// Footprint returns the maximum phase footprint.
func (p *PhasedPattern) Footprint() uint64 {
	var max uint64
	for _, ph := range p.Phases {
		if f := ph.Footprint(); f > max {
			max = f
		}
	}
	return max
}

// Clone returns a reset copy with cloned phases.
func (p *PhasedPattern) Clone() Pattern {
	phases := make([]Pattern, len(p.Phases))
	for i, ph := range p.Phases {
		phases[i] = ph.Clone()
	}
	return &PhasedPattern{Phases: phases, OpsPerPhase: p.OpsPerPhase}
}

// Reset rewinds to the initial phase state and resets every sub-pattern.
func (p *PhasedPattern) Reset() {
	p.cur = 0
	p.opsLeft = 0
	for _, ph := range p.Phases {
		ph.Reset()
	}
}

// Validate sanity-checks a pattern's parameters and returns a descriptive
// error for region sizes that are zero or not line-multiples.
func Validate(p Pattern) error {
	switch q := p.(type) {
	case *StridePattern:
		if q.Region == 0 || q.Region%64 != 0 || q.Stride == 0 {
			return fmt.Errorf("workload: bad stride pattern %+v", q)
		}
	case *StreamPattern:
		if q.Region == 0 || q.Region%64 != 0 {
			return fmt.Errorf("workload: bad stream pattern %+v", q)
		}
	case *RandomPattern:
		if q.Region < 64 {
			return fmt.Errorf("workload: bad random pattern %+v", q)
		}
	case *HotspotPattern:
		if q.HotRegion < 64 || q.ColdRegion < 64 || q.Hot < 0 || q.Hot > 1 {
			return fmt.Errorf("workload: bad hotspot pattern %+v", q)
		}
	case *ChasePattern:
		if q.Region < 128 {
			return fmt.Errorf("workload: bad chase pattern %+v", q)
		}
	case *MixPattern:
		if q.A == nil || q.B == nil || q.AFrac < 0 || q.AFrac > 1 {
			return fmt.Errorf("workload: bad mix pattern")
		}
		if q.BOffset < q.A.Footprint() {
			return fmt.Errorf("workload: mix pattern sub-regions overlap")
		}
		if err := Validate(q.A); err != nil {
			return err
		}
		if err := Validate(q.B); err != nil {
			return err
		}
	case *PhasedPattern:
		if len(q.Phases) == 0 || q.OpsPerPhase == 0 {
			return fmt.Errorf("workload: bad phased pattern")
		}
		for _, ph := range q.Phases {
			if err := Validate(ph); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("workload: unknown pattern type %T", p)
	}
	return nil
}
