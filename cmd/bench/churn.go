package main

import (
	"fmt"
	"sort"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/experiments"
)

// The churn layer: per-event cost of the incremental arrival/departure path
// versus the full rebuild it replaces. Per P, the campaign point samples one
// seeded Poisson campaign, whose every arrival (alloc.PairWeight scoring +
// top-m selection + graph.InsertAndRepair), departure
// (graph.RemoveAndRepair) and aging refresh (monitor.Ager.Refresh + local
// repair) is timed through the driver's observer; timing never feeds the
// report, so the campaign checksum is a pure function of the seed. The
// rebuild point samples the alloc layer's sparse decision at the same scale.
// Their ratio is the crossover: the events per monitor quantum above which
// one rebuild is cheaper than absorbing each event, a rate the campaign's
// drift-triggered rebuild fallback covers.

// churnQuanta is the campaign length in monitor quanta.
const churnQuanta = 200

func runChurn(reps int) []Point {
	var pts []Point
	for _, p := range []int{256, 1024} {
		k := p / 16 // as in the allocator layer
		byKind := map[string][]float64{}
		cfg := experiments.ChurnConfig{
			Mode:        "poisson",
			Seed:        42,
			P0:          p,
			Cores:       k,
			Quanta:      churnQuanta,
			ArrivalRate: 2,
			MeanLife:    float64(p),       // population hovers near P0
			RefreshFrac: 0.5 / float64(p), // one thread per quantum: per-refresh timing
			FragLimit:   0.6,
			OnEvent: func(kind string, d time.Duration) {
				byKind[kind] = append(byKind[kind], float64(d.Nanoseconds())/1e3)
			},
		}
		var rep experiments.ChurnReport
		campaign := measure("churn", fmt.Sprintf("campaign P=%d k=%d quanta=%d", p, k, churnQuanta), reps,
			func() (func(), func() string) {
				return func() { rep = experiments.RunChurn(cfg) }, func() string { return rep.Checksum }
			})
		views := experiments.SynthAllocViews(p, k)
		rebuild := measure("churn", fmt.Sprintf("rebuild P=%d k=%d", p, k), reps,
			decision(func() alloc.Mapping { return sparseDecision(views, k) }))

		info := map[string]float64{"arrivals": float64(rep.Arrivals), "departures": float64(rep.Departures),
			"migrations": float64(rep.Migrations), "rebuilds": float64(rep.Rebuilds)}
		if ev := rep.Arrivals + rep.Departures; ev > 0 {
			// Placement stability: reassignments per structural event, the
			// §4 migration-cost proxy.
			info["mig_per_event"] = float64(rep.Migrations) / float64(ev)
		}
		for kind, key := range map[string]string{"arrive": "insert", "depart": "remove", "refresh": "age"} {
			sort.Float64s(byKind[kind])
			info[key+"_p50_us"], info[key+"_p99_us"] = percentiles(byKind[kind])
		}
		// The slower event kind, conservatively, against the median rebuild:
		// the event rate above which one rebuild per quantum is cheaper.
		if event := max(info["insert_p50_us"], info["remove_p50_us"]); event > 0 {
			info["crossover_events_per_quantum"] = rebuild.P50Micros / event
		}
		campaign.Info = info
		pts = append(pts, campaign, rebuild)
	}
	return pts
}
