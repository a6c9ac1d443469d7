// Online churn: the open-system arrival/departure study behind ROADMAP
// direction 2. The original monitor loop assumed a fixed thread population —
// every structural change meant rebuilding the top-m interference graph and
// re-partitioning from scratch, O(P²) per event. This driver exercises the
// incremental alternative end to end: an arriving thread is scored against
// the live population (alloc.PairWeight's weight, read from a per-core score
// index), spliced into the graph with Partitioner.InsertAndRepair, and
// registered with the monitor's lazy Ager; a departing thread leaves through
// Partitioner.RemoveAndRepair; stale signature contributions decay through
// Ager.Refresh; and the accumulated drift
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
	// interference-graph build's top-m sparsification. 0 defaults to 16.
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
// tombstoned ids), the score index beside it, the mutable sparse graph, its
// partition, and the monitor-side staleness clocks.
//
// Every placement step runs on one alloc.Scratch: the seed build and each
// rebuild write the scratch's graph (g points at it) and re-partition on
// its Partitioner into pt, and every arrival, departure and refresh repairs
// on that same Partitioner. A campaign whose storage covers its population
// therefore allocates nothing per quantum, rebuilds included.
type churnCampaign struct {
	cfg     ChurnConfig
	rng     *rand.Rand
	views   []kernel.View
	scratch alloc.Scratch
	g       *graph.Sparse
	pt      *graph.Partition
	ag      *monitor.Ager
	born    []int // arrival sequence number per id, -1 when dead; trace-mode FIFO victim order
	seq     int

	// The score index is views in struct-of-arrays form, written only by
	// store: lastCore[u] is views[u].LastCore and cols[c][u] is
	// views[u].Overlap[c]. A live view's pair weight against u,
	// alloc.PairWeight(view, &views[u]), is then
	// view.Overlap[lastCore[u]] + cols[view.LastCore][u], read from two
	// dense arrays. A dead id holds lastCore 0 and deadScore in every
	// column, so its score is negative and never enters a partner window.
	lastCore []int32
	cols     [][]int32

	rep      ChurnReport
	sum      hash64
	cursor   int // round-robin refresh position
	missBase int // misses accumulated before the last rebuild reset drift
	touch    [1]int
	window   graph.TopM // topPartners' selection; only positive scores enter
	// spare holds departed threads' Symbiosis and Overlap vectors, which
	// newView reuses so an arrival allocates no view storage.
	spare [][]int32
}

// deadScore is a dead id's entry in every score-index column: added to any
// int32 overlap it stays negative.
const deadScore = math.MinInt32

// RunChurn executes one arrival/departure campaign and returns its report.
func RunChurn(c ChurnConfig) ChurnReport {
	cc := newChurnCampaign(c)
	for q := 0; q < cc.cfg.Quanta; q++ {
		cc.quantum(q)
	}
	return cc.report()
}

// newChurnCampaign validates c and seeds its initial population.
func newChurnCampaign(c ChurnConfig) *churnCampaign {
	cfg := c.defaults()
	if cfg.Cores < 1 || cfg.P0 < 0 || cfg.Quanta < 0 || cfg.TopM < 0 {
		panic(fmt.Sprintf("experiments: bad churn config %+v", cfg))
	}
	cc := &churnCampaign{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		ag:  monitor.NewAger(cfg.Alpha, cfg.Decay),
		sum: newHash64(),
	}
	cc.rep = ChurnReport{Mode: cfg.Mode, Seed: cfg.Seed, P0: cfg.P0,
		Cores: cfg.Cores, Quanta: cfg.Quanta}
	cc.seed()
	return cc
}

// report finishes the campaign's report: final population, cut and the
// checksum over the event log and final assignment.
func (cc *churnCampaign) report() ChurnReport {
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
	// A quarter of headroom holds the ids a population fluctuating around
	// P0 reaches, so the table and the index are allocated once.
	cc.reserve(cc.cfg.P0 + cc.cfg.P0/4)
	for i := 0; i < cc.cfg.P0; i++ {
		cc.store(i, cc.newView(i), cc.seq)
		cc.seq++
	}
	cc.rebuild()
}

// reserve allocates the view table and the score index empty, with room
// for n ids; store grows them past n.
func (cc *churnCampaign) reserve(n int) {
	cc.views, cc.born = make([]kernel.View, 0, n), make([]int, 0, n)
	cc.lastCore, cc.cols = make([]int32, 0, n), make([][]int32, cc.cfg.Cores)
	for c := range cc.cols {
		cc.cols[c] = make([]int32, 0, n)
	}
}

// store makes id u hold view with arrival sequence number born (-1: dead),
// growing the view table and the score index to cover u, and writes u's
// score-index entries. A live view must carry a signature, a Cores-long
// Overlap and a LastCore below Cores, as newView's do; on such views the
// index scores exactly what alloc.PairWeight does.
func (cc *churnCampaign) store(u int, view kernel.View, born int) {
	for u >= len(cc.views) {
		cc.views = append(cc.views, kernel.View{})
		cc.born = append(cc.born, -1)
		cc.lastCore = append(cc.lastCore, 0)
		for c := range cc.cols {
			cc.cols[c] = append(cc.cols[c], deadScore)
		}
	}
	cc.views[u], cc.born[u] = view, born
	if born < 0 {
		cc.lastCore[u] = 0
		for _, col := range cc.cols {
			col[u] = deadScore
		}
		return
	}
	cc.lastCore[u] = int32(view.LastCore)
	for c, col := range cc.cols {
		col[u] = view.Overlap[c]
	}
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

// rebuild is the fallback path: a fresh top-m build over the current id
// space, a fresh multilevel partition, fresh staleness clocks — each
// written over the previous one's storage in the campaign's scratch, and
// bit-identical to alloc.SparseInterferenceGraph plus Sparse.NewPartition
// on fresh scratch. Dead slots carry signatureless views on core 0, which
// still score d(j→core 0) against every live j, so they get edges until
// RemoveNode drops them.
func (cc *churnCampaign) rebuild() {
	g := cc.scratch.SparseInterferenceGraph(cc.views)
	for i, born := range cc.born {
		if born < 0 {
			g.RemoveNode(i)
		}
	}
	cc.g = g
	cc.pt = cc.scratch.Partitioner().Partition(g, cc.cfg.Cores, cc.pt)
	cc.ag.Reset()
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
	v, migrations := cc.scratch.Partitioner().InsertAndRepair(cc.g, cc.pt, nbrs, wts)
	view.ThreadID, view.ProcID = v, v
	cc.store(v, view, cc.seq-1)
	cc.ag.NodeInserted(v)
	cc.rep.Arrivals++
	cc.rep.Migrations += migrations
	cc.sum.ints(1, q, v, migrations, cc.pt.Group(v))
	cc.tock("arrive", start)
}

// depart removes thread v through the incremental path.
func (cc *churnCampaign) depart(q, v int) {
	start := cc.tick()
	migrations := cc.scratch.Partitioner().RemoveAndRepair(cc.g, cc.pt, v)
	cc.spare = append(cc.spare, cc.views[v].Symbiosis, cc.views[v].Overlap)
	cc.store(v, kernel.View{ThreadID: v}, -1)
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

// topPartners selects the TopM heaviest interference partners of view (a
// live view in store's shape) among the live population, heaviest first and
// ties to the smaller id — the arrival-time equivalent of the allocator's
// top-m row scan — in one O(P) pass over the score index. Both terms of a
// pair weight are int32 overlaps, so their integer sum converts to exactly
// the float64 alloc.PairWeight returns. Ids arrive ascending, so a
// candidate that does not beat the window's floor loses to every partner
// in it and costs one comparison; the window's Admit, a call of its own,
// leaves the scan loop few enough values to keep in registers.
func (cc *churnCampaign) topPartners(view *kernel.View) ([]int32, []float64) {
	w := &cc.window
	w.Reset(cc.cfg.TopM, 0)
	row, last := view.Overlap, cc.lastCore
	col := cc.cols[view.LastCore][:len(last)]
	var floor int64
	for u, c := range last {
		if s := int64(row[c]) + int64(col[u]); s > floor {
			floor = int64(w.Admit(int32(u), float64(s)))
		}
	}
	return w.Kept()
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
	part := cc.scratch.Partitioner()
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
		part.Repair(cc.g, cc.pt, cc.touch[:])
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
