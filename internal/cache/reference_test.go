package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refCache is a set-associative cache written for clarity rather than
// speed, sharing no code with Cache: each set maps way → resident line and
// keeps a queue of its valid ways, the next victim first — least recently
// used under LRU, oldest filled under FIFO. It models the rules Cache
// documents: ways fill lowest-invalid-first, a full set evicts its policy's
// victim (Random: xorshift64 from seed 0x9e3779b97f4a7c15, advanced only
// when the set is full), Flush evicts every valid frame in set, then way,
// order.
type refCache struct {
	ways      int
	lineShift uint
	policy    Replacement
	sets      []refSet
	rng       uint64
	perCore   map[int]*Stats
	evictions uint64
	events    []string
}

type refSet struct {
	line  map[int]uint64 // way → resident line
	queue []int          // valid ways, next victim first
}

func newRefCache(cfg Config) *refCache {
	r := &refCache{ways: cfg.Ways, policy: cfg.Replace, rng: 0x9e3779b97f4a7c15, perCore: map[int]*Stats{}}
	for cfg.LineBytes > 1<<r.lineShift {
		r.lineShift++
	}
	r.sets = make([]refSet, cfg.SizeBytes/cfg.LineBytes/cfg.Ways)
	for i := range r.sets {
		r.sets[i].line = map[int]uint64{}
	}
	return r
}

func (r *refCache) access(core int, addr uint64) bool {
	line := addr >> r.lineShift
	set := int(line % uint64(len(r.sets)))
	s := &r.sets[set]
	st := r.perCore[core]
	if st == nil {
		st = &Stats{}
		r.perCore[core] = st
	}
	st.Accesses++
	for way, l := range s.line {
		if l == line {
			st.Hits++
			if r.policy == LRU {
				s.queue = append(slices.DeleteFunc(s.queue, func(w int) bool { return w == way }), way)
			}
			return true
		}
	}
	st.Misses++
	way := 0
	for ; way < r.ways; way++ {
		if _, ok := s.line[way]; !ok {
			break
		}
	}
	if way == r.ways { // full: evict the policy's victim
		way = s.queue[0]
		if r.policy == Random {
			r.rng ^= r.rng << 13
			r.rng ^= r.rng >> 7
			r.rng ^= r.rng << 17
			way = int(r.rng % uint64(r.ways))
		}
		r.evictions++
		r.events = append(r.events, fmt.Sprintf("evict %d %d/%d", s.line[way], set, way))
		s.queue = slices.DeleteFunc(s.queue, func(w int) bool { return w == way })
	}
	s.line[way] = line
	s.queue = append(s.queue, way)
	r.events = append(r.events, fmt.Sprintf("fill c%d %d %d/%d", core, line, set, way))
	return false
}

func (r *refCache) flush() {
	for set := range r.sets {
		s := &r.sets[set]
		for way := range r.ways {
			if l, ok := s.line[way]; ok {
				r.evictions++
				r.events = append(r.events, fmt.Sprintf("evict %d %d/%d", l, set, way))
			}
		}
		clear(s.line)
		s.queue = s.queue[:0]
	}
}

func (r *refCache) stats() Stats {
	s := Stats{Evictions: r.evictions}
	for _, st := range r.perCore {
		s.Accesses += st.Accesses
		s.Hits += st.Hits
		s.Misses += st.Misses
	}
	return s
}

func (r *refCache) resident() int {
	n := 0
	for _, s := range r.sets {
		n += len(s.line)
	}
	return n
}

// eventLog records a Cache's fills and evictions in refCache's format.
type eventLog struct{ events []string }

func (l *eventLog) OnFill(core int, lineAddr uint64, set, way int) {
	l.events = append(l.events, fmt.Sprintf("fill c%d %d %d/%d", core, lineAddr, set, way))
}

func (l *eventLog) OnEvict(lineAddr uint64, set, way int) {
	l.events = append(l.events, fmt.Sprintf("evict %d %d/%d", lineAddr, set, way))
}

// refOp is one step of a differential run: an access, or a flush.
type refOp struct {
	flush bool
	core  int
	addr  uint64
}

// checkAgainstReference runs ops through a Cache and a refCache and fails
// at the first access whose hit/miss, fills or evictions differ, or where
// the statistics or resident line counts part.
func checkAgainstReference(t *testing.T, cfg Config, ops []refOp) {
	t.Helper()
	c, ref, log := New(cfg), newRefCache(cfg), &eventLog{}
	c.SetListener(log)
	for i, op := range ops {
		what := "flush"
		if op.flush {
			c.Flush()
			ref.flush()
		} else {
			what = fmt.Sprintf("core %d access %#x", op.core, op.addr)
			if got, want := c.Access(op.core, op.addr), ref.access(op.core, op.addr); got != want {
				t.Fatalf("%+v step %d (%s): hit %v, reference %v", cfg, i, what, got, want)
			}
		}
		if !slices.Equal(log.events, ref.events) {
			t.Fatalf("%+v step %d (%s): events %v, reference %v", cfg, i, what, log.events, ref.events)
		}
		log.events, ref.events = log.events[:0], ref.events[:0]
		if got, want := c.Stats(), ref.stats(); got != want {
			t.Fatalf("%+v step %d (%s): stats %+v, reference %+v", cfg, i, what, got, want)
		}
		if got, want := c.ResidentLines(), ref.resident(); got != want {
			t.Fatalf("%+v step %d (%s): %d resident lines, reference %d", cfg, i, what, got, want)
		}
	}
	for core, st := range ref.perCore {
		if got := c.CoreStats(core); got != *st {
			t.Fatalf("%+v: core %d stats %+v, reference %+v", cfg, core, got, *st)
		}
	}
}

// TestCacheMatchesReference checks Cache against refCache for every policy
// over 1–16 ways and 1–64 sets, on random streams of byte addresses drawn
// mostly from a footprint of about three times the cache (so hits, misses
// and evictions all occur), with a rare flush.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, policy := range []Replacement{LRU, FIFO, Random} {
		for ways := 1; ways <= 16; ways++ {
			for sets := 1; sets <= 64; sets *= 2 {
				cfg := Config{SizeBytes: sets * ways * 64, LineBytes: 64, Ways: ways, Replace: policy}
				lines := 3 * sets * ways
				ops := make([]refOp, 600)
				for i := range ops {
					switch k := rng.Intn(100); {
					case k == 0:
						ops[i].flush = true
					case k < 5: // a far line: high address bits must not alias
						ops[i] = refOp{core: rng.Intn(4), addr: rng.Uint64() >> 8}
					default:
						ops[i] = refOp{core: rng.Intn(4), addr: uint64(rng.Intn(lines))<<6 | uint64(rng.Intn(64))}
					}
				}
				checkAgainstReference(t, cfg, ops)
			}
		}
	}
}

// FuzzCacheMatchesReference decodes a geometry and an operation stream from
// the input and checks Cache against refCache on it. Byte 0 picks the
// ways (1–16) and policy, byte 1 the sets (1–64); every following pair of
// bytes is one access (core in the top two bits, a line of a 16 Ki-line
// space below) or, for 0xFFFF, a flush.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways := int(data[0]%16) + 1
		policy := Replacement(data[0] / 16 % 3)
		sets := 1 << (data[1] % 7)
		cfg := Config{SizeBytes: sets * ways * 64, LineBytes: 64, Ways: ways, Replace: policy}
		var ops []refOp
		for b := data[2:]; len(b) >= 2; b = b[2:] {
			v := uint16(b[0])<<8 | uint16(b[1])
			if v == 0xFFFF {
				ops = append(ops, refOp{flush: true})
				continue
			}
			ops = append(ops, refOp{core: int(v >> 14), addr: uint64(v&0x3FFF) << 6})
		}
		checkAgainstReference(t, cfg, ops)
	})
}
