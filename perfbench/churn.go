package main

import (
	"fmt"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/experiments"
)

// churnBench is churn-p1024: one seeded Poisson arrival/departure campaign
// run back to back on one goroutine, with no host-time schedule.
type churnBench struct {
	o   *options
	cfg experiments.ChurnConfig
}

func newChurn(o *options) *churnBench {
	b := &churnBench{o: o, cfg: o.sc.churn}
	b.cfg.Seed = int64(o.seed)
	return b
}

func (b *churnBench) fixtures() error   { return nil }
func (b *churnBench) setupEachOp() bool { return false }

// setup seeds the initial population: a zero-quantum campaign builds the
// P0-node interference graph and its partition.
func (b *churnBench) setup() error {
	c := b.cfg
	c.Quanta = 0
	experiments.RunChurn(c)
	return nil
}

func (b *churnBench) op(t *tally) (opOut, error) {
	var arrivals []float64
	c := b.cfg
	c.OnEvent = func(kind string, d time.Duration) {
		if kind == "arrive" {
			arrivals = append(arrivals, float64(d.Nanoseconds())/1e3)
		}
	}
	var rep experiments.ChurnReport
	var out opOut
	timed(&out, func() { rep = experiments.RunChurn(c) })
	b.check(t, rep)
	out.digest, out.latency = rep.Checksum, arrivals
	out.note = fmt.Sprintf("%d arrivals, %d departures, %d compacts, %d rebuilds, checksum %s",
		rep.Arrivals, rep.Departures, rep.Compacts, rep.Rebuilds, rep.Checksum)
	return out, nil
}

// check verifies a campaign report: the population balance always, the
// recorded checksum when the seed has one.
func (b *churnBench) check(t *tally, rep experiments.ChurnReport) experiments.ChurnReport {
	events := rep.Arrivals + rep.Departures
	t.attempted += events
	if rep.FinalAlive != b.cfg.P0+rep.Arrivals-rep.Departures || rep.Quanta != b.cfg.Quanta {
		t.fail(events, "report does not balance: P0 %d + %d arrivals - %d departures != %d alive after %d quanta",
			b.cfg.P0, rep.Arrivals, rep.Departures, rep.FinalAlive, rep.Quanta)
	}
	if want, ok := recordedChurn[b.o.seed]; ok && rep.Checksum != want {
		t.fail(events, "checksum %s, recorded %s", rep.Checksum, want)
	}
	return rep
}

// traced makes churn's traced run: seed builds, an untraced campaign, a
// campaign with a span per event, and isolated alloc.PairWeight and
// sparse-rebuild passes over churn-shaped views.
func (b *churnBench) traced(t *tally, rec *recorder) (map[string]float64, error) {
	vals := map[string]float64{}
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, err
		}
		rec.add("graph.seed_build", 0, 0, t0, time.Now())
	}
	vals["graph.seed_build_ms"] = median(rec.durations("graph.seed_build")) * 1e3

	ref, err := b.op(t)
	if err != nil {
		return nil, err
	}
	b.o.log("untraced campaign: %.3fs %s", ref.wall, ref.note)

	spanName := map[string]string{
		"arrive":  "graph.arrive",
		"depart":  "graph.depart",
		"refresh": "monitor.refresh",
		"rebuild": "graph.rebuild",
		"compact": "graph.compact",
	}
	root := rec.reserve()
	c := b.cfg
	var events int64
	c.OnEvent = func(kind string, d time.Duration) {
		end := time.Now()
		events++
		rec.add(spanName[kind], root, events, end.Add(-d), end)
	}
	t0 := time.Now()
	rep := b.check(t, experiments.RunChurn(c))
	tracedWall := time.Since(t0)
	rec.finish(root, "experiments.churn", 0, 0, t0, t0.Add(tracedWall))
	if rep.Checksum != ref.digest {
		t.fail(rep.Arrivals+rep.Departures, "traced campaign checksum %s differs from the untraced campaign's %s", rep.Checksum, ref.digest)
	}
	vals["perfbench.trace_overhead_s"] = tracedWall.Seconds() - ref.wall
	us := func(name string) []float64 { return scaled(rec.durations(name), 1e6) }
	vals["graph.arrive_us_p50"] = quantile(us("graph.arrive"), 0.5)
	vals["graph.arrive_us_p99"] = quantile(us("graph.arrive"), 0.99)
	vals["graph.depart_us_p50"] = quantile(us("graph.depart"), 0.5)
	vals["graph.depart_us_p99"] = quantile(us("graph.depart"), 0.99)
	vals["graph.compact_us_p50"] = quantile(us("graph.compact"), 0.5)
	vals["graph.rebuild_ms_p50"] = quantile(us("graph.rebuild"), 0.5) / 1e3
	vals["monitor.refresh_us_p50"] = quantile(us("monitor.refresh"), 0.5)
	vals["monitor.refresh_us_p99"] = quantile(us("monitor.refresh"), 0.99)
	vals["graph.compacts"] = float64(rep.Compacts)
	vals["graph.rebuilds"] = float64(rep.Rebuilds)
	vals["graph.migrations_per_event"] = float64(rep.Migrations) / float64(max(rep.Arrivals+rep.Departures, 1))
	b.o.log("traced campaign: %.3fs, %d events", tracedWall.Seconds(), events)

	// Isolated passes over views of the campaign's shape: every live
	// thread scored against every other, and full sparse rebuilds.
	views := experiments.SynthAllocViews(b.cfg.P0, b.cfg.Cores)
	var sink float64
	t0 = time.Now()
	for i := range views {
		for j := range views {
			sink += alloc.PairWeight(&views[i], &views[j])
		}
	}
	t1 := time.Now()
	rec.add("alloc.pair_weight", 0, 0, t0, t1)
	vals["alloc.pair_weight_ns"] = float64(t1.Sub(t0).Nanoseconds()) / float64(len(views)*len(views))
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		alloc.SparseInterferenceGraph(views).NewPartition(b.cfg.Cores)
		rec.add("graph.sparse_rebuild", 0, 0, t0, time.Now())
	}
	vals["graph.sparse_rebuild_ms_p50"] = median(rec.durations("graph.sparse_rebuild")) * 1e3
	b.o.log("pair-weight pass sum %g", sink)
	return vals, nil
}
