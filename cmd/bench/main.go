// Command bench is the reproducible performance harness for the simulator's
// headline workload: the Figure 10 sweep (every 4-subset of a 6-benchmark
// pool, two-phase methodology) at the Quick scale — the same work as
// BenchmarkFigure10 in bench_test.go, but self-timed and recorded to a JSON
// artifact so before/after comparisons survive in the repository.
//
// Protocol: the sweep runs -reps times in one process; the minimum wall time
// is the headline number (robust to ambient load on shared hosts), and the
// per-rep times are kept so noise is visible. The sweep's avg/max
// improvement metrics are recorded as a determinism checksum: two builds
// that disagree on them are not running the same experiment, and their
// times must not be compared.
//
// Usage:
//
//	go run ./cmd/bench -label after -out results/BENCH_2026-08-06.json
//
// When -out names an existing file produced by this tool, the new entry is
// appended, so running the tool once per build accumulates a comparison
// (build the tool at the baseline commit and point -out at the same file).
//
// Regression gate: `bench -check results/BENCH_<date>.json -tolerance 0.15`
// measures as usual, then compares against the newest entry of the baseline
// file and exits non-zero when the sweep is more than the tolerance slower
// (or when the determinism checksums diverge — different experiments must
// never be compared). In check mode no artifact is written unless -out is
// given explicitly.
//
// Allocator microbenchmark: -alloc adds the dense/sparse/repair allocation
// latency sweep (P ∈ {64, 256, 1024, 4096}, k = P/16) to the entry;
// -alloconly runs just that sweep. See alloc.go for the protocol and the
// -allocreps/-allocdense knobs. The -check gate extends to allocator points
// present in both entries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/experiments"
	"symbiosched/internal/workload"
)

// Report is the on-disk artifact: one file, many labelled entries.
type Report struct {
	Benchmark string  `json:"benchmark"`
	Protocol  string  `json:"protocol"`
	Entries   []Entry `json:"entries"`
}

// Entry is one measured build.
type Entry struct {
	Label      string    `json:"label"`
	Date       string    `json:"date"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Reps       []float64 `json:"rep_seconds"`
	MinSeconds float64   `json:"min_seconds"`
	// Determinism checksum: the experiment's own outputs. Entries whose
	// checksums differ are not comparable.
	AvgImprovementPct float64 `json:"avg_improvement_pct"`
	MaxImprovementPct float64 `json:"max_improvement_pct"`
	Note              string  `json:"note,omitempty"`
	// Alloc holds the allocator microbenchmark points when -alloc was given;
	// see cmd/bench/alloc.go.
	Alloc []AllocPoint `json:"alloc,omitempty"`
	// Sig holds the signature-path microbenchmark points when -sig was
	// given; see cmd/bench/sig.go.
	Sig []SigPoint `json:"sig,omitempty"`
	// Trace holds the trace I/O benchmark points when -trace was given;
	// see cmd/bench/trace.go.
	Trace []TracePoint `json:"trace,omitempty"`
	// Coord holds the coordinator service benchmark points when -coord was
	// given; see cmd/bench/coord.go. Recorded but never gated by -check.
	Coord []CoordPoint `json:"coord,omitempty"`
	// Churn holds the arrival/departure benchmark points when -churn was
	// given; see cmd/bench/churn.go.
	Churn []ChurnPoint `json:"churn,omitempty"`
	// RepsMP1/MinSecondsMP1 record the same sweep pinned to GOMAXPROCS=1
	// when -mp1 was given, so single-core and native-parallel numbers live
	// in one entry (on a 1-vCPU host the two coincide; recording both keeps
	// the protocol honest when the host grows cores).
	RepsMP1       []float64 `json:"rep_seconds_mp1,omitempty"`
	MinSecondsMP1 float64   `json:"min_seconds_mp1,omitempty"`
}

func main() {
	reps := flag.Int("reps", 3, "sweep repetitions (minimum wall time is reported)")
	label := flag.String("label", "HEAD", "entry label, e.g. a commit id")
	out := flag.String("out", "", "JSON artifact path (default results/BENCH_<date>.json); appended to if it exists")
	note := flag.String("note", "", "free-form provenance note stored with the entry")
	mixSize := flag.Int("mixsize", 4, "benchmarks per mix")
	shards := flag.Int("shards", 1, "run the sweep as N sequential in-process shards and merge them (1 = direct sweep); exercises the shard protocol end to end")
	check := flag.String("check", "", "baseline bench JSON: compare against its newest entry and exit non-zero on regression")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional slowdown vs the baseline in -check mode")
	allocBench := flag.Bool("alloc", false, "also run the allocator microbenchmark (dense/sparse/repair latency across the P-sweep)")
	allocOnly := flag.Bool("alloconly", false, "run only the allocator microbenchmark, skipping the Figure 10 sweep")
	allocReps := flag.Int("allocreps", 21, "allocator benchmark invocations per point (p50/p99 are computed over these)")
	allocDense := flag.Int("allocdense", 256, "largest P at which the dense allocator baseline is measured (0 disables; P=1024 costs minutes per invocation)")
	sigBench := flag.Bool("sig", false, "also run the signature-path microbenchmark (per-switch capture cost and monitor-quantum latency across the (P,N) grid)")
	sigOnly := flag.Bool("sigonly", false, "run only the signature-path microbenchmark, skipping the Figure 10 sweep")
	sigReps := flag.Int("sigreps", 7, "signature benchmark samples per point (p50 is computed over these)")
	traceBench := flag.Bool("trace", false, "also run the trace I/O benchmark (open-to-first-run and replay throughput, v1 vs compiled vs mmap vs compressed)")
	traceOnly := flag.Bool("traceonly", false, "run only the trace I/O benchmark, skipping the Figure 10 sweep")
	traceReps := flag.Int("tracereps", 11, "trace benchmark open samples per format (p50/p99 are computed over these)")
	traceMB := flag.Int("tracemb", 128, "trace benchmark fixture size in MiB of resident run records")
	coordBench := flag.Bool("coord", false, "also run the coordinator service benchmark (concurrent fake-worker fleet over real HTTP against one journaled daemon)")
	coordOnly := flag.Bool("coordonly", false, "run only the coordinator service benchmark, skipping the Figure 10 sweep")
	coordWorkers := flag.Int("coordworkers", 50, "coordinator benchmark fleet size (concurrent fake workers)")
	coordShards := flag.Int("coordshards", 64, "coordinator benchmark campaign shard count")
	churnBench := flag.Bool("churn", false, "also run the churn benchmark (per-event arrival/departure/aging cost vs full rebuild, Poisson campaigns at P in {256, 1024})")
	churnOnly := flag.Bool("churnonly", false, "run only the churn benchmark, skipping the Figure 10 sweep")
	churnQuanta := flag.Int("churnquanta", 200, "churn benchmark campaign length in monitor quanta")
	mp1 := flag.Bool("mp1", false, "after the native-GOMAXPROCS reps, repeat the sweep pinned to GOMAXPROCS=1 and record both in the entry")
	flag.Parse()
	if *allocOnly {
		*allocBench = true
	}
	if *sigOnly {
		*sigBench = true
	}
	if *traceOnly {
		*traceBench = true
	}
	if *coordOnly {
		*coordBench = true
	}
	if *churnOnly {
		*churnBench = true
	}
	microOnly := *allocOnly || *sigOnly || *traceOnly || *coordOnly || *churnOnly

	cfg := experiments.Quick()
	pool := pool()
	policy := alloc.WeightedInterferenceGraph{}

	// runSweep is one rep: either the direct sweep or the full shard
	// protocol (SweepShard × N + MergeShards). Both must produce identical
	// determinism checksums — a -shards entry that disagrees with a direct
	// entry indicates a broken merge, not a different experiment.
	runSweep := func() experiments.ImprovementReport {
		if *shards <= 1 {
			return cfg.Sweep(pool, policy, *mixSize, nil)
		}
		parts := make([]experiments.Shard, *shards)
		for i := range parts {
			sc := cfg
			sc.ShardIndex, sc.ShardTotal = i, *shards
			s, err := sc.SweepShard(pool, policy, *mixSize, nil)
			if err != nil {
				fatal(err)
			}
			parts[i] = s
		}
		rep, err := experiments.MergeShards(parts)
		if err != nil {
			fatal(err)
		}
		return rep
	}

	e := Entry{
		Label:      *label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MinSeconds: -1,
		Note:       *note,
	}
	if *shards > 1 {
		tag := fmt.Sprintf("sharded %d-way in process, merged", *shards)
		if e.Note == "" {
			e.Note = tag
		} else {
			e.Note += "; " + tag
		}
	}
	if !microOnly {
		for i := 0; i < *reps; i++ {
			start := time.Now()
			rep := runSweep()
			secs := time.Since(start).Seconds()
			e.Reps = append(e.Reps, secs)
			if e.MinSeconds < 0 || secs < e.MinSeconds {
				e.MinSeconds = secs
			}
			e.AvgImprovementPct = 100 * rep.Overall()
			e.MaxImprovementPct = 100 * rep.MaxOverall()
			fmt.Fprintf(os.Stderr, "rep %d/%d: %.3fs (avg %.3f%%, max %.2f%%)\n",
				i+1, *reps, secs, e.AvgImprovementPct, e.MaxImprovementPct)
		}
		if *mp1 {
			native := runtime.GOMAXPROCS(1)
			for i := 0; i < *reps; i++ {
				start := time.Now()
				rep := runSweep()
				secs := time.Since(start).Seconds()
				e.RepsMP1 = append(e.RepsMP1, secs)
				if e.MinSecondsMP1 == 0 || secs < e.MinSecondsMP1 {
					e.MinSecondsMP1 = secs
				}
				// The sweep is deterministic regardless of parallelism; a
				// GOMAXPROCS=1 run that disagrees is a concurrency bug.
				if 100*rep.Overall() != e.AvgImprovementPct || 100*rep.MaxOverall() != e.MaxImprovementPct {
					fatal(fmt.Errorf("GOMAXPROCS=1 sweep diverged from native run: avg %.12f%% vs %.12f%%",
						100*rep.Overall(), e.AvgImprovementPct))
				}
				fmt.Fprintf(os.Stderr, "rep %d/%d (GOMAXPROCS=1): %.3fs\n", i+1, *reps, secs)
			}
			runtime.GOMAXPROCS(native)
		}
	}
	if *allocBench {
		e.Alloc = runAllocBench(*allocReps, *allocDense)
	}
	if *sigBench {
		e.Sig = runSigBench(*sigReps)
	}
	if *traceBench {
		e.Trace = runTraceBench(*traceReps, *traceMB)
	}
	if *coordBench {
		e.Coord = runCoordBench([]int{*coordWorkers}, *coordShards)
	}
	if *churnBench {
		e.Churn = runChurnBench(*churnQuanta)
	}

	if *check != "" {
		checkRegression(*check, e, *tolerance, !microOnly)
		if *out == "" {
			return
		}
	}
	if microOnly && *out == "" {
		// The micro-only sweeps are smoke/inspection modes (make allocbench,
		// make sigbench); recording an artifact requires an explicit -out.
		return
	}

	path := *out
	if path == "" {
		path = "results/BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	rpt := load(path)
	rpt.Entries = append(rpt.Entries, e)
	buf, err := json.MarshalIndent(rpt, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	if microOnly {
		fmt.Printf("%s: %s %d allocator points, %d signature points, %d trace points, %d coordinator points, %d churn points\n",
			path, e.Label, len(e.Alloc), len(e.Sig), len(e.Trace), len(e.Coord), len(e.Churn))
		return
	}
	fmt.Printf("%s: %s min %.3fs over %d reps\n", path, e.Label, e.MinSeconds, *reps)
	if n := len(rpt.Entries); n >= 2 {
		base, cur := rpt.Entries[0], rpt.Entries[n-1]
		if base.AvgImprovementPct != cur.AvgImprovementPct {
			fmt.Printf("note: %q and %q have different determinism checksums; speedup below compares different experiments\n",
				base.Label, cur.Label)
		}
		fmt.Printf("speedup vs %s: %.2fx\n", base.Label, base.MinSeconds/cur.MinSeconds)
	}
}

// checkRegression is the perf gate: the measured entry must reproduce the
// baseline's determinism checksums exactly (otherwise the two builds ran
// different experiments and no time comparison is meaningful) and must not
// be more than tolerance slower than the baseline's newest entry. When both
// entries carry allocator points, the matching points are gated the same
// way (exact checksum, tolerance on p50). Exits the process non-zero on any
// violation. sweepRan is false under -alloconly, where only the allocator
// points are comparable.
func checkRegression(path string, e Entry, tolerance float64, sweepRan bool) {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatal(fmt.Errorf("-check baseline: %w", err))
	}
	var base Report
	if err := json.Unmarshal(buf, &base); err != nil {
		fatal(fmt.Errorf("-check baseline %s: %w", path, err))
	}
	if len(base.Entries) == 0 {
		fatal(fmt.Errorf("-check baseline %s has no entries", path))
	}
	ref := base.Entries[len(base.Entries)-1]
	if sweepRan {
		if ref.AvgImprovementPct != e.AvgImprovementPct || ref.MaxImprovementPct != e.MaxImprovementPct {
			fmt.Fprintf(os.Stderr, "bench: determinism checksum mismatch vs baseline %q: avg %.12f%% / max %.12f%%, baseline %.12f%% / %.12f%% — the experiment itself changed, record a new baseline before gating on time\n",
				ref.Label, e.AvgImprovementPct, e.MaxImprovementPct, ref.AvgImprovementPct, ref.MaxImprovementPct)
			os.Exit(1)
		}
		limit := ref.MinSeconds * (1 + tolerance)
		ratio := e.MinSeconds/ref.MinSeconds - 1
		if e.MinSeconds > limit {
			fmt.Fprintf(os.Stderr, "bench: REGRESSION: min %.3fs vs baseline %q %.3fs (%+.1f%%, tolerance %.0f%%)\n",
				e.MinSeconds, ref.Label, ref.MinSeconds, 100*ratio, 100*tolerance)
			os.Exit(1)
		}
		fmt.Printf("bench: ok: min %.3fs vs baseline %q %.3fs (%+.1f%%, tolerance %.0f%%)\n",
			e.MinSeconds, ref.Label, ref.MinSeconds, 100*ratio, 100*tolerance)
	}
	if len(e.Alloc) > 0 && len(ref.Alloc) > 0 {
		if !checkAllocPoints(ref.Alloc, e.Alloc, tolerance) {
			os.Exit(1)
		}
	}
	if len(e.Sig) > 0 && len(ref.Sig) > 0 {
		if !checkSigPoints(ref.Sig, e.Sig, tolerance) {
			os.Exit(1)
		}
	}
	if len(e.Trace) > 0 && len(ref.Trace) > 0 {
		if !checkTracePoints(ref.Trace, e.Trace, tolerance) {
			os.Exit(1)
		}
	}
	if len(e.Churn) > 0 && len(ref.Churn) > 0 {
		if !checkChurnPoints(ref.Churn, e.Churn, tolerance) {
			os.Exit(1)
		}
	}
}

// pool returns the Figure 10 bench pool: six SPEC profiles spanning every
// behaviour class (15 four-benchmark mixes), matching bench_test.go.
func pool() []workload.Profile {
	var out []workload.Profile
	for _, n := range []string{"mcf", "omnetpp", "libquantum", "hmmer", "povray", "gobmk"} {
		p, err := workload.ByName(n)
		if err != nil {
			fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func load(path string) Report {
	rpt := Report{
		Benchmark: "Figure10 sweep: 6-benchmark SPEC pool, 4-per-mix, Quick scale, WIG policy",
		Protocol:  "N reps in one process, minimum wall time reported; run baseline and candidate builds in one quiet window and compare min_seconds",
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return rpt
	}
	if err := json.Unmarshal(buf, &rpt); err != nil {
		fatal(fmt.Errorf("%s exists but is not a bench report: %w", path, err))
	}
	return rpt
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
