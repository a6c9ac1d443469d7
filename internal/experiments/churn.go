// Online churn: the open-system arrival/departure study behind ROADMAP
// direction 2. The original monitor loop assumed a fixed thread population —
// every structural change meant rebuilding the top-m interference graph and
// re-partitioning from scratch, O(P²) per event. This driver exercises the
// incremental alternative end to end: an arriving thread is scored against
// the live population with alloc.PairWeight, spliced into the graph with
// graph.InsertAndRepair, and registered with the monitor's lazy Ager; a
// departing thread leaves through graph.RemoveAndRepair; stale signature
// contributions decay through Ager.Refresh; and the accumulated drift
// (sparsification misses + storage fragmentation) triggers the automatic
// fallback — Compact when only storage drifted, full rebuild when the
// topology did. Everything is seeded and deterministic: the same config
// produces a byte-identical report, timing flows only through the optional
// OnEvent observer.
package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/graph"
	"symbiosched/internal/kernel"
	"symbiosched/internal/monitor"
)

// ChurnEvent is one scheduled structural event in trace mode.
type ChurnEvent struct {
	Quantum int  `json:"quantum"`
	Arrive  bool `json:"arrive"` // false = departure (oldest live thread)
}

// ChurnConfig parameterizes one churn campaign.
type ChurnConfig struct {
	// Mode selects the workload model: "poisson" (open system: Poisson
	// arrivals, geometric lifetimes) or "trace" (explicit Schedule).
	Mode string
	// Seed drives every random choice; equal seeds give equal reports.
	Seed int64
	// P0 is the initial population, Cores the partition's group count.
	P0, Cores int
	// Quanta is the campaign length in monitor periods.
	Quanta int
	// ArrivalRate is the Poisson mean of arrivals per quantum; MeanLife the
	// mean thread lifetime in quanta (geometric departures). Poisson mode.
	ArrivalRate, MeanLife float64
	// Schedule is the trace-mode event list (must be sorted by Quantum).
	Schedule []ChurnEvent
	// TopM bounds an arrival's initial neighbor set, mirroring the
	// builder's top-m sparsification. 0 defaults to 16.
	TopM int
	// RefreshFrac is the fraction of the live population re-profiled per
	// quantum through the Ager (round-robin). Alpha and Decay are the
	// Ager's blend and per-quantum retention factors.
	RefreshFrac, Alpha, Decay float64
	// FragLimit triggers a storage Compact when Sparse.Frag exceeds it;
	// MissLimit triggers the full rebuild fallback when accumulated
	// UpdateWeight misses exceed it. Zero limits disable the trigger.
	FragLimit float64
	MissLimit int
	// OnEvent, when non-nil, observes per-event wall time by kind
	// ("arrive", "depart", "refresh", "rebuild", "compact"). Timing never
	// feeds the report, so observed runs stay deterministic.
	OnEvent func(kind string, elapsed time.Duration)
}

// ChurnReport is the deterministic outcome of one campaign.
type ChurnReport struct {
	Mode       string  `json:"mode"`
	Seed       int64   `json:"seed"`
	P0         int     `json:"p0"`
	Cores      int     `json:"cores"`
	Quanta     int     `json:"quanta"`
	Arrivals   int     `json:"arrivals"`
	Departures int     `json:"departures"`
	Refreshes  int     `json:"refreshes"`
	Migrations int     `json:"migrations"` // placement reassignments across all events
	Misses     int     `json:"misses"`     // sparsification misses observed by probes
	Compacts   int     `json:"compacts"`
	Rebuilds   int     `json:"rebuilds"` // drift-triggered fallbacks to a full rebuild
	FinalAlive int     `json:"final_alive"`
	FinalCut   float64 `json:"final_cut"`
	Checksum   string  `json:"checksum"` // FNV-1a over the event log + final assignment
}

func (c *ChurnConfig) defaults() ChurnConfig {
	cfg := *c
	if cfg.Mode == "" {
		cfg.Mode = "poisson"
	}
	if cfg.TopM == 0 {
		cfg.TopM = 16
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.5
	}
	if cfg.Decay == 0 {
		cfg.Decay = 0.9
	}
	if cfg.MeanLife == 0 {
		cfg.MeanLife = 64
	}
	return cfg
}

// churnCampaign owns the live state of one run: the kernel-view table
// indexed by graph node id (slots are reused exactly as the graph reuses
// tombstoned ids), the mutable sparse graph, its partition, and the
// monitor-side staleness clocks.
type churnCampaign struct {
	cfg   ChurnConfig
	rng   *rand.Rand
	views []kernel.View
	g     *graph.Sparse
	pt    *graph.Partition
	ag    *monitor.Ager
	born  []int // arrival sequence number per id, -1 when dead; trace-mode FIFO victim order
	seq   int

	rep      ChurnReport
	sum      hash64
	cursor   int // round-robin refresh position
	missBase int // misses accumulated before the last rebuild reset drift
	touch    [1]int
	scratch  struct {
		nbrs []int32
		wts  []float64
	}
	// spare holds departed threads' Symbiosis and Overlap vectors, which
	// newView reuses so an arrival allocates no view storage.
	spare [][]int32
}

// RunChurn executes one arrival/departure campaign and returns its report.
func RunChurn(c ChurnConfig) ChurnReport {
	cfg := c.defaults()
	if cfg.Cores < 1 || cfg.P0 < 0 || cfg.Quanta < 0 || cfg.TopM < 0 {
		panic(fmt.Sprintf("experiments: bad churn config %+v", cfg))
	}
	cc := &churnCampaign{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		sum: newHash64(),
	}
	cc.rep = ChurnReport{Mode: cfg.Mode, Seed: cfg.Seed, P0: cfg.P0,
		Cores: cfg.Cores, Quanta: cfg.Quanta}
	cc.seed()
	for q := 0; q < cfg.Quanta; q++ {
		cc.quantum(q)
	}
	cc.rep.FinalAlive = cc.g.Alive()
	cc.rep.FinalCut = cc.pt.Cut()
	for v, a := range cc.pt.Assign() {
		cc.sum.ints(7, v, int(a))
	}
	cc.sum.ints(8, int(math.Float64bits(cc.pt.Cut())))
	cc.rep.Checksum = fmt.Sprintf("%016x", cc.sum.Sum64())
	return cc.rep
}

// seed builds the initial population the way a rebuild does: full
// interference graph over the id space, multilevel partition, fresh clocks.
func (cc *churnCampaign) seed() {
	cc.views = make([]kernel.View, cc.cfg.P0)
	cc.born = make([]int, cc.cfg.P0)
	for i := range cc.views {
		cc.views[i] = cc.newView(i)
		cc.born[i] = cc.seq
		cc.seq++
	}
	cc.rebuild()
}

// newView synthesizes an arriving thread's monitor view: baseline noise
// plus a planted clique on its class core, the same shape SynthAllocViews
// plants (threads of one class interfere through one shared cache).
func (cc *churnCampaign) newView(id int) kernel.View {
	class := cc.seq % cc.cfg.Cores
	sym, ov := cc.vector(), cc.vector()
	for c := range sym {
		sym[c] = int32(800 + cc.rng.Intn(200))
		ov[c] = int32(cc.rng.Intn(4))
	}
	sym[class] = int32(1 + cc.rng.Intn(4))
	ov[class] = int32(150 + cc.rng.Intn(100))
	return kernel.View{
		ThreadID: id, ProcID: id, Threads: 1, LastCore: class,
		Occupancy: 40 + cc.rng.Intn(60), Symbiosis: sym, Overlap: ov, HasSig: true,
	}
}

// vector returns a Cores-long vector for newView, a departed thread's when
// one is spare. newView overwrites every element.
func (cc *churnCampaign) vector() []int32 {
	if k := len(cc.spare); k > 0 {
		v := cc.spare[k-1]
		cc.spare = cc.spare[:k-1]
		return v
	}
	return make([]int32, cc.cfg.Cores)
}

// rebuild is the fallback path: a fresh top-m build over the current
// population (dead slots carry signatureless views and so produce no
// edges), a fresh multilevel partition, fresh staleness clocks.
func (cc *churnCampaign) rebuild() {
	cc.g, cc.pt, cc.ag = nil, nil, nil // collectable while the new graph builds
	g := alloc.SparseInterferenceGraph(cc.views)
	for i := range cc.views {
		if cc.born == nil || i >= len(cc.born) || cc.born[i] >= 0 {
			continue
		}
		g.RemoveNode(i)
	}
	cc.g = g
	cc.pt = g.NewPartition(cc.cfg.Cores)
	cc.ag = monitor.NewAger(cc.cfg.Alpha, cc.cfg.Decay)
}

// quantum advances the campaign one monitor period.
func (cc *churnCampaign) quantum(q int) {
	cc.ag.BeginQuantum()
	switch cc.cfg.Mode {
	case "poisson":
		for n := poisson(cc.rng, cc.cfg.ArrivalRate); n > 0; n-- {
			cc.arrive(q)
		}
		pDepart := 1 / cc.cfg.MeanLife
		for v := 0; v < len(cc.born); v++ {
			if cc.born[v] >= 0 && cc.rng.Float64() < pDepart {
				cc.depart(q, v)
			}
		}
	case "trace":
		for _, ev := range cc.cfg.Schedule {
			if ev.Quantum != q {
				continue
			}
			if ev.Arrive {
				cc.arrive(q)
			} else if v := cc.oldest(); v >= 0 {
				cc.depart(q, v)
			}
		}
	default:
		panic(fmt.Sprintf("experiments: unknown churn mode %q", cc.cfg.Mode))
	}
	cc.refresh(q)
	cc.probe(q)
	cc.fallback(q)
}

// arrive scores the newcomer against every live thread, keeps the TopM
// heaviest partners, and splices it into graph, partition, and clocks —
// the O(P + degree·Δ) incremental path that replaces a full rebuild.
func (cc *churnCampaign) arrive(q int) {
	start := cc.tick()
	view := cc.newView(-1)
	cc.seq++
	nbrs, wts := cc.topPartners(&view)
	v, migrations := graph.InsertAndRepair(cc.g, cc.pt, nbrs, wts)
	view.ThreadID, view.ProcID = v, v
	for v >= len(cc.views) {
		cc.views = append(cc.views, kernel.View{})
		cc.born = append(cc.born, -1)
	}
	cc.views[v] = view
	cc.born[v] = cc.seq - 1
	cc.ag.NodeInserted(v)
	cc.rep.Arrivals++
	cc.rep.Migrations += migrations
	cc.sum.ints(1, q, v, migrations, cc.pt.Group(v))
	cc.tock("arrive", start)
}

// depart removes thread v through the incremental path.
func (cc *churnCampaign) depart(q, v int) {
	start := cc.tick()
	migrations := graph.RemoveAndRepair(cc.g, cc.pt, v)
	cc.spare = append(cc.spare, cc.views[v].Symbiosis, cc.views[v].Overlap)
	cc.views[v] = kernel.View{ThreadID: v}
	cc.born[v] = -1
	cc.rep.Departures++
	cc.rep.Migrations += migrations
	cc.sum.ints(2, q, v, migrations)
	cc.tock("depart", start)
}

// oldest returns the live id with the smallest arrival sequence (trace-mode
// departure victim), or -1 when the population is empty.
func (cc *churnCampaign) oldest() int {
	best, bestSeq := -1, int(^uint(0)>>1)
	for v, s := range cc.born {
		if s >= 0 && s < bestSeq {
			best, bestSeq = v, s
		}
	}
	return best
}

// topPartners selects the TopM heaviest interference partners of view among
// the live population, heaviest first and ties to the smaller id — the
// arrival-time equivalent of the builder's top-m sparsification — in one
// O(P) pass. The window holds the best partners seen so far in that order;
// ids arrive ascending, so a candidate no heavier than the window's last
// entry loses to it and is rejected with one comparison.
func (cc *churnCampaign) topPartners(view *kernel.View) ([]int32, []float64) {
	m := cc.cfg.TopM
	nbrs, wts := cc.scratch.nbrs[:0], cc.scratch.wts[:0]
	for u := range cc.views {
		if cc.born[u] < 0 {
			continue
		}
		w := alloc.PairWeight(view, &cc.views[u])
		if w <= 0 {
			continue
		}
		k := len(nbrs)
		if k == m {
			if w <= wts[k-1] {
				continue
			}
			k-- // evict the last entry
		} else {
			nbrs, wts = append(nbrs, 0), append(wts, 0)
		}
		for ; k > 0 && wts[k-1] < w; k-- {
			nbrs[k], wts[k] = nbrs[k-1], wts[k-1]
		}
		nbrs[k], wts[k] = int32(u), w
	}
	cc.scratch.nbrs, cc.scratch.wts = nbrs, wts
	return nbrs, wts
}

// refresh re-profiles a RefreshFrac slice of the live population through the
// Ager's lazy decay, round-robin so every thread's contributions age out
// eventually, and mends the partition around the refreshed nodes.
func (cc *churnCampaign) refresh(q int) {
	alive := cc.g.Alive()
	if alive == 0 || cc.cfg.RefreshFrac <= 0 {
		return
	}
	count := int(cc.cfg.RefreshFrac * float64(alive))
	if count < 1 {
		count = 1
	}
	start := cc.tick()
	for i := 0; i < count; i++ {
		for cc.born[cc.cursor%len(cc.born)] < 0 {
			cc.cursor++
		}
		v := cc.cursor % len(cc.born)
		cc.cursor++
		vw := &cc.views[v]
		cc.rep.Refreshes += cc.ag.Refresh(cc.g, cc.pt, v, func(u int) float64 {
			return alloc.PairWeight(vw, &cc.views[u])
		})
		cc.touch[0] = v
		graph.RepairPartition(cc.g, cc.pt, cc.touch[:])
	}
	cc.tock("refresh", start)
}

// probe samples one live thread per quantum and recomputes its fresh top-m
// partner set from scratch; partners the sparse structure no longer (or
// never) carried surface as UpdateWeight misses in the graph's drift
// counters — the signal the fallback policy watches.
func (cc *churnCampaign) probe(q int) {
	if cc.g.Alive() == 0 {
		return
	}
	v := cc.oldest()
	if alt := q % len(cc.born); cc.born[alt] >= 0 {
		v = alt
	}
	nbrs, wts := cc.topPartners(&cc.views[v])
	for i, u := range nbrs {
		if int(u) == v {
			continue
		}
		cc.pt.UpdateWeight(cc.g, v, int(u), wts[i])
	}
}

// fallback applies the drift policy: storage-only drift is compacted in
// place, topology drift beyond MissLimit forces the full rebuild the
// incremental path exists to avoid — and counts how often that happens, the
// empirical rebuild-vs-repair crossover input.
func (cc *churnCampaign) fallback(q int) {
	d := cc.g.Drift()
	cc.rep.Misses = cc.missBase + d.Misses
	if cc.cfg.MissLimit > 0 && d.Misses > cc.cfg.MissLimit {
		start := cc.tick()
		cc.missBase += d.Misses
		cc.rebuild()
		cc.rep.Rebuilds++
		cc.sum.ints(3, q, cc.g.Alive())
		cc.tock("rebuild", start)
		return
	}
	if cc.cfg.FragLimit > 0 && cc.g.Frag() > cc.cfg.FragLimit {
		start := cc.tick()
		cc.g.Compact()
		cc.rep.Compacts++
		cc.sum.ints(4, q)
		cc.tock("compact", start)
	}
}

func (cc *churnCampaign) tick() time.Time {
	if cc.cfg.OnEvent == nil {
		return time.Time{}
	}
	return time.Now()
}

func (cc *churnCampaign) tock(kind string, start time.Time) {
	if cc.cfg.OnEvent != nil {
		cc.cfg.OnEvent(kind, time.Since(start))
	}
}

// poisson draws from Poisson(mean) by Knuth's product method — mean is
// small (arrivals per quantum), so the loop is short.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// hash64 is a tiny FNV-1a accumulator for the deterministic event log.
type hash64 struct{ h uint64 }

func newHash64() hash64 {
	f := fnv.New64a()
	return hash64{f.Sum64()}
}

func (s *hash64) ints(vals ...int) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		for _, b := range buf {
			s.h ^= uint64(b)
			s.h *= 1099511628211
		}
	}
}

func (s *hash64) Sum64() uint64 { return s.h }
