// Command bench is the reproducible performance harness. It times the
// simulator's headline workload, the Figure 10 sweep (every 4-subset of a
// 6-benchmark pool, two-phase methodology, Quick scale: the work of
// BenchmarkFigure10 in bench_test.go), and the layers beneath it, and
// appends them to a JSON ledger so before/after comparisons survive in the
// repository. -layers picks what runs (default: the sweep alone):
//
//	sweep  the Figure 10 sweep: minimum wall time over -reps runs, with its
//	       avg/max improvement as the determinism checksum
//	alloc  one allocation decision: sparse build + partition, incremental repair (alloc.go)
//	sig    one context-switch capture, one monitor quantum (sig.go)
//	trace  trace open-to-first-run and full replay, three paths (trace.go)
//	churn  arrival/departure campaigns vs a full rebuild (churn.go)
//
// Every layer but the sweep yields Points, each -reps timed samples of one
// deterministic computation taken by one sampler (sample).
//
//	go run ./cmd/bench -mp1 -label after -out results/BENCH_2026-08-06.json
//	go run ./cmd/bench -layers sweep,alloc,sig,trace,churn -reps 5 -check results/BENCH_2026-08-06.json
//
// The entry is appended to the -out ledger, keeping earlier entries byte for
// byte; without -out nothing is written and the entry is printed as JSON.
// -check compares it against the ledger's newest entry (compare) and exits
// non-zero on a regression, a checksum mismatch or a measurement the
// baseline lacks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/experiments"
	"symbiosched/internal/workload"
)

// layers is the registry behind -layers; the sweep is measured apart because
// it records into the entry's top-level fields. floor is the baseline p50, in
// µs, below which a point is gated on its checksum only: shorter timings are
// timer and scheduler noise on shared hosts.
var layers = map[string]struct {
	run   func(reps int) []Point
	floor float64
}{
	"alloc": {runAlloc, 1e3},
	"sig":   {runSig, 1e3},
	"trace": {runTrace, 1e4},
	"churn": {runChurn, 1e3},
}

func main() {
	layerList := flag.String("layers", "sweep", "comma-separated layers to measure: sweep, alloc, sig, trace, churn")
	reps := flag.Int("reps", 3, "timed samples per point (sweep: repetitions; the minimum wall time is the headline)")
	label := flag.String("label", "HEAD", "entry label, e.g. a commit id")
	out := flag.String("out", "", "ledger to append the entry to (without it nothing is written and the entry is printed)")
	note := flag.String("note", "", "free-form provenance note stored with the entry")
	baseline := flag.String("check", "", "baseline ledger: compare against its newest entry and exit non-zero on regression")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional p50 slowdown vs the baseline in -check mode")
	mp1 := flag.Bool("mp1", false, "after the native-GOMAXPROCS sweep, repeat it pinned to GOMAXPROCS=1 and record both")
	flag.Parse()
	if *reps < 1 {
		fatal(fmt.Errorf("-reps must be at least 1"))
	}

	e := Entry{
		Label:      *label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       *note,
	}
	sweep := false
	for _, name := range strings.Split(*layerList, ",") {
		if name == "sweep" {
			sweep = true
			runSweep(&e, *reps, *mp1)
			continue
		}
		l, ok := layers[name]
		if !ok {
			fatal(fmt.Errorf("unknown layer %q in -layers", name))
		}
		for _, pt := range l.run(*reps) {
			fmt.Fprintln(os.Stderr, pt)
			e.Points = append(e.Points, pt)
		}
	}

	if *baseline != "" {
		base, err := load(*baseline)
		check(err)
		ref, err := base.entry(len(base.Entries) - 1)
		check(err)
		if !compare(os.Stdout, ref, e, sweep, *tolerance) {
			os.Exit(1)
		}
	}
	if *out == "" {
		buf, err := json.MarshalIndent(e, "", "  ")
		check(err)
		fmt.Printf("%s\n", buf)
		return
	}
	rpt, err := appendEntry(*out, e)
	check(err)
	fmt.Printf("%s: appended %q with %d points\n", *out, e.Label, len(e.Points))
	if summary, ok := sweepSummary(rpt, e); sweep && ok {
		fmt.Println(summary)
	}
}

// runSweep times the Figure 10 sweep reps times into e's top-level fields,
// and with mp1 again pinned to GOMAXPROCS=1. The sweep is deterministic
// whatever the parallelism: a pinned pass that disagrees with the native one
// is a concurrency bug and aborts the run.
func runSweep(e *Entry, reps int, mp1 bool) {
	cfg := experiments.Quick()
	pool := pool()
	var rep experiments.ImprovementReport
	t := func() (func(), func() string) {
		return func() { rep = cfg.Sweep(pool, alloc.WeightedInterferenceGraph{}, 4, nil) },
			func() string { return fmt.Sprint(100*rep.Overall(), 100*rep.MaxOverall()) }
	}
	us, sum := sample("sweep", reps, t)
	e.Reps, e.MinSeconds = seconds(us)
	e.AvgImprovementPct, e.MaxImprovementPct = 100*rep.Overall(), 100*rep.MaxOverall()
	fmt.Fprintf(os.Stderr, "sweep: %v s (avg %.3f%%, max %.2f%%)\n", e.Reps, e.AvgImprovementPct, e.MaxImprovementPct)
	if mp1 {
		native := runtime.GOMAXPROCS(1)
		us, pinned := sample("sweep (GOMAXPROCS=1)", reps, t)
		runtime.GOMAXPROCS(native)
		if pinned != sum {
			fatal(fmt.Errorf("GOMAXPROCS=1 sweep diverged from the native run: avg/max %s vs %s", pinned, sum))
		}
		e.RepsMP1, e.MinSecondsMP1 = seconds(us)
		fmt.Fprintf(os.Stderr, "sweep (GOMAXPROCS=1): %v s\n", e.RepsMP1)
	}
}

// seconds converts sample times in µs to seconds and their minimum.
func seconds(us []float64) ([]float64, float64) {
	s := make([]float64, len(us))
	for i, u := range us {
		s[i] = u / 1e6
	}
	return s, slices.Min(s)
}

// pool returns the Figure 10 bench pool: six SPEC profiles spanning every
// behaviour class (15 four-benchmark mixes), matching bench_test.go.
func pool() []workload.Profile {
	var out []workload.Profile
	for _, n := range []string{"mcf", "omnetpp", "libquantum", "hmmer", "povray", "gobmk"} {
		p, err := workload.ByName(n)
		check(err)
		out = append(out, p)
	}
	return out
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
