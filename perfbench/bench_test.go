package main

import (
	"encoding/json"
	"os"
	"testing"

	"symbiosched/internal/experiments"
)

// tinyScale runs every workload in well under a second, race detector
// included: one four-benchmark mix on a shortened machine, a 64-thread
// churn campaign, and two five-shard campaigns.
var tinyScale = func() scale {
	cfg := experiments.Quick()
	cfg.InstrDiv = 1024
	cfg.Quantum, cfg.MonitorPeriod, cfg.Phase1Horizon = 50_000, 50_000, 300_000
	return scale{
		pool:     []string{"mcf", "libquantum", "povray", "gobmk"},
		sweep:    cfg,
		passRefs: 1 << 12,
		churn: experiments.ChurnConfig{
			Mode: "poisson", P0: 64, Cores: 8, Quanta: 20,
			ArrivalRate: 2, MeanLife: 16, RefreshFrac: 0.05, FragLimit: 0.6, MissLimit: 50,
		},
		stormCampaigns: 2,
		stormPool:      []string{"mcf", "omnetpp", "libquantum", "povray", "gobmk"},
	}
}()

func tinyOptions(t *testing.T, workload string, trace bool) *options {
	return &options{
		workload: workload,
		seed:     3,
		seconds:  1e-3, // one operation
		trace:    trace,
		dir:      t.TempDir(),
		sc:       tinyScale,
		log:      t.Logf,
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric tables must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTablesMatchBenchmarkJSON pins the metric and workload tables to the
// file the benchmark is judged by.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSmokeAllWorkloads runs every workload at tiny scale, untraced and
// traced, and requires correct outputs and every metric with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := run(tinyOptions(t, name, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct %v, %d of %d failed", traced, res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics reported, want %d", traced, len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("traced=%v: metric %s reported as %+v (present %v), want unit %s", traced, d.name, m, ok, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want a positive measurement", d.name, m.Value)
					}
				}
			}
		})
	}
}

// TestSeedGivesIdenticalDigests runs each workload's operation from two
// fresh runners with one seed; the output digests must agree.
func TestSeedGivesIdenticalDigests(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var digests []string
			for i := 0; i < 2; i++ {
				w, err := newRunner(tinyOptions(t, name, false))
				if err != nil {
					t.Fatal(err)
				}
				if err := w.fixtures(); err != nil {
					t.Fatal(err)
				}
				if err := w.setup(); err != nil {
					t.Fatal(err)
				}
				var tl tally
				out, err := w.op(&tl)
				if err != nil {
					t.Fatal(err)
				}
				if tl.failed != 0 {
					t.Fatalf("run %d: %v", i, tl.problems)
				}
				digests = append(digests, out.digest)
			}
			if digests[0] == "" || digests[0] != digests[1] {
				t.Fatalf("digests %q and %q differ", digests[0], digests[1])
			}
		})
	}
}
