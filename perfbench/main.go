// Command perfbench is the repository's layered benchmark. It runs one of
// three seeded workloads, each stressing a different set of modules, checks
// the program's outputs, and prints one JSON line with either the
// end-to-end metrics of an untraced run or, with -trace 1, the per-layer
// metrics of a traced run:
//
//	fig10-synth     Fig 10 sweep, synthetic generators, native (experiments,
//	                engine, cache, workload, bloom, monitor, alloc, graph);
//	                its traced run also replays a seeded compiled-trace
//	                corpus of the same runs (trace)
//	churn-p1024     Poisson arrival/departure campaign at P0 = 1024 (alloc,
//	                graph, monitor; no simulation)
//	campaign-storm  in-process coordinator daemon drained by two closed-loop
//	                coordctl clients submitting fabricated shards (coordctl
//	                only)
//
// An untraced run makes one untimed warm-up operation, then repeats the
// workload's operation (a whole sweep, a whole campaign, one drain of every
// coordinator campaign) for -seconds and reports medians over the
// operations:
//
//	setup_s         set-up before an operation: building the pool, seeding
//	                the churn population, starting the daemon and submitting
//	                the campaigns
//	wall_s          one operation
//	cpu_s           CPU time of the whole process over one operation
//	peak_rss_mb     peak resident set over the measured phase
//	alloc_mb        heap allocated by one operation
//	latency_p50_us  median latency of the workload's unit of work: a mix's
//	                result from the start of its sweep, a thread arrival, a
//	                worker's lease plus submit
//
// Failed operations are the top-level "failed" count against "attempted".
// Simulated cycles and instructions are exact counts: they are checked, not
// timed, and a change that only speeds the simulator up must leave them
// identical. The model is unvalidated against hardware at this scale, so no
// accuracy figure is reported.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig10-synth --seed 24301 --seconds 15 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is experiments.Quick's seed, the one the Fig 10 lineage
// checksums were recorded at.
const defaultSeed = 0x5eed

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"latency_p50_us", "us"},
}

// perLayer are the metrics of a traced run, prefixed by the module they
// measure. A workload that bypasses a module reports 0 for its metrics.
var perLayer = []metricDef{
	{"experiments.phase1_busy_s", "s"},
	{"experiments.candidate_busy_s", "s"},
	{"experiments.worker_idle_frac", "ratio"},
	{"experiments.steal_frac", "ratio"},
	{"engine.phase1_ns_per_kinstr", "ns"},
	{"engine.phase2_ns_per_kinstr", "ns"},
	{"engine.sim_instr", "count"},
	{"engine.sim_cycles", "count"},
	{"engine.context_switches", "count"},
	{"cache.ns_per_access", "ns"},
	{"cache.l2_accesses", "count"},
	{"cache.l1_miss_rate", "ratio"},
	{"cache.l2_miss_rate", "ratio"},
	{"workload.ns_per_ref", "ns"},
	{"trace.ns_per_ref", "ns"},
	{"trace.open_ms", "ms"},
	{"bloom.fill_evict_ns", "ns"},
	{"bloom.capture_us_p50", "us"},
	{"monitor.quantum_us_p50", "us"},
	{"monitor.quantum_us_p90", "us"},
	{"monitor.quanta", "count"},
	{"monitor.vote_majority_frac", "ratio"},
	{"monitor.refresh_us_p50", "us"},
	{"monitor.refresh_us_p99", "us"},
	{"alloc.allocate_us_p50", "us"},
	{"alloc.pair_weight_ns", "ns"},
	{"graph.arrive_us_p50", "us"},
	{"graph.arrive_us_p99", "us"},
	{"graph.depart_us_p50", "us"},
	{"graph.depart_us_p99", "us"},
	{"graph.compact_us_p50", "us"},
	{"graph.rebuild_ms_p50", "ms"},
	{"graph.sparse_rebuild_ms_p50", "ms"},
	{"graph.seed_build_ms", "ms"},
	{"graph.compacts", "count"},
	{"graph.rebuilds", "count"},
	{"graph.migrations_per_event", "ratio"},
	{"coordctl.lease_ms_p50", "ms"},
	{"coordctl.lease_ms_p99", "ms"},
	{"coordctl.submit_ms_p50", "ms"},
	{"coordctl.submit_ms_p99", "ms"},
	{"coordctl.empty_poll_frac", "ratio"},
	{"coordctl.accept_frac", "ratio"},
	{"coordctl.journal_bytes_per_shard", "bytes"},
	{"coordctl.journaled_drain_s", "s"},
	{"coordctl.report_ms", "ms"},
	{"perfbench.trace_overhead_s", "s"},
}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"fig10-synth", "churn-p1024", "campaign-storm"}

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir holds the run's fixtures, journals and span file; it is removed
	// when the run ends.
	dir string
	// spanPath, when set, receives the traced run's spans.
	spanPath string
	sc       scale
	log      func(format string, args ...any)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts the operations a run asked of the program and how many of
// them failed or produced output that did not check out.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// runner drives one of the benchmark's workloads. setup is timed into
// setup_s, op into wall_s; traced produces the per-layer metrics.
type runner interface {
	// fixtures builds the seeded inputs before any clock starts.
	fixtures() error
	// setup readies the program for the next operation.
	setup() error
	// setupEachOp reports whether every operation needs a fresh setup.
	setupEachOp() bool
	// op runs one measured operation and checks its outputs.
	op(t *tally) (opOut, error)
	// traced makes the traced run: one untraced and one traced operation,
	// the parity check between them, and the layer passes.
	traced(t *tally, rec *recorder) (map[string]float64, error)
}

// opOut is what one measured operation produced.
type opOut struct {
	wall     float64   // seconds in the program's calls
	cpu      float64   // CPU seconds the process spent in them, all threads
	allocMiB float64   // heap allocated during those calls
	digest   string    // whole-output digest, identical across operations
	latency  []float64 // latency of each unit of work, microseconds
	note     string    // one-line human summary
}

// timed runs fn and records its wall time, the process's CPU time and the
// heap it allocated into out. Operations time only their calls into the
// program, not the benchmark's own output checks.
func timed(out *opOut, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	t0 := time.Now()
	fn()
	out.wall = time.Since(t0).Seconds()
	out.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&after)
	out.allocMiB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// processCPU returns the user and system CPU seconds of the whole process.
// Unlike wall time it excludes time the host did not run the process, which
// on a shared host is the largest source of run-to-run spread.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func newRunner(o *options) (runner, error) {
	switch o.workload {
	case "fig10-synth":
		return newSweep(o), nil
	case "churn-p1024":
		return newChurn(o), nil
	case "campaign-storm":
		return newStorm(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
}

// setupReps is how many set-up samples a workload whose set-up is shared
// by every operation takes to report a median.
const setupReps = 100

// setupSample is the least time one such sample covers: the set-up is
// repeated back to back until it has taken this long, and the sample is the
// mean time per set-up. The sweep's set-up takes about 15 microseconds; on
// a 2-vCPU KVM guest, timed one at a time right after a collection, its
// median read 15 us in some processes and 30 us in others, while
// millisecond batches repeated within 7% from process to process.
const setupSample = time.Millisecond

// run executes one invocation and returns its result line.
func run(o *options) (result, error) {
	w, err := newRunner(o)
	if err != nil {
		return result{}, err
	}
	if err := w.fixtures(); err != nil {
		return result{}, err
	}
	var t tally
	if o.trace {
		return runTraced(o, w, &t)
	}
	var m measurement
	if !w.setupEachOp() {
		for i := 0; i < setupReps; i++ {
			if err := m.timeSetup(w); err != nil {
				return result{}, err
			}
		}
	}
	// One untimed operation first pays the one-time costs (the sweep's
	// per-worker arenas) that would otherwise weigh on whichever measured
	// operation came first. Its outputs are checked like any other's.
	if w.setupEachOp() {
		if err := m.timeSetup(w); err != nil {
			return result{}, err
		}
	}
	warm, err := w.op(&t)
	if err != nil {
		return result{}, err
	}
	o.log("warm-up op: %.3fs %s", warm.wall, warm.note)
	var digests []string
	if err := resetPeakRSS(); err != nil {
		o.log("warning: cannot reset the peak resident set (%v); peak_rss_mb covers the whole process", err)
	}
	start := time.Now()
	for len(m.walls) == 0 || time.Since(start).Seconds() < o.seconds {
		if w.setupEachOp() {
			if err := m.timeSetup(w); err != nil {
				return result{}, err
			}
		}
		out, err := w.op(&t)
		if err != nil {
			return result{}, err
		}
		m.walls = append(m.walls, out.wall)
		m.cpus = append(m.cpus, out.cpu)
		m.allocs = append(m.allocs, out.allocMiB)
		m.latency = append(m.latency, out.latency...)
		digests = append(digests, out.digest)
		o.log("op %d: %.3fs, cpu %.3fs, latency p50 %.1fus, %s", len(m.walls), out.wall, out.cpu, median(out.latency), out.note)
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	for i, d := range digests {
		if d != warm.digest {
			t.fail(1, "op %d digest %s differs from the warm-up op's digest %s", i+1, d, warm.digest)
		}
	}
	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	res.Correct = t.failed == 0 && t.attempted > 0
	vals := map[string]float64{
		"setup_s":        median(m.setups),
		"wall_s":         median(m.walls),
		"cpu_s":          median(m.cpus),
		"peak_rss_mb":    peak,
		"alloc_mb":       median(m.allocs),
		"latency_p50_us": median(m.latency),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	o.log("%d ops, wall median %.3fs, %d setups, %d latency samples (p50 %.1fus, p90 %.1fus, p99 %.1fus); attempted %d, failed %d, fail_frac %g",
		len(m.walls), median(m.walls), len(m.setups), len(m.latency), median(m.latency), quantile(m.latency, 0.9), quantile(m.latency, 0.99),
		t.attempted, t.failed, float64(t.failed)/float64(max(t.attempted, 1)))
	for _, p := range t.problems {
		o.log("FAIL: %s", p)
	}
	return res, nil
}

// measurement accumulates the samples of an untraced run.
type measurement struct {
	setups, walls, cpus, allocs, latency []float64
}

// timeSetup times one set-up sample. A collection first lets every sample
// start from the same heap, so that no set-up pays for collecting earlier
// work's garbage. A set-up shared by every operation runs back to back
// until the sample has taken setupSample.
func (m *measurement) timeSetup(w runner) error {
	runtime.GC()
	t0 := time.Now()
	n := 0
	for {
		if err := w.setup(); err != nil {
			return err
		}
		n++
		if w.setupEachOp() || time.Since(t0) >= setupSample {
			break
		}
	}
	m.setups = append(m.setups, time.Since(t0).Seconds()/float64(n))
	return nil
}

// runTraced makes the traced run and reports every per-layer metric, or no
// metrics at all when its parity check failed.
func runTraced(o *options, w runner, t *tally) (result, error) {
	rec := newRecorder()
	vals, err := w.traced(t, rec)
	if err != nil {
		return result{}, err
	}
	if o.spanPath != "" {
		if err := rec.write(o.spanPath); err != nil {
			return result{}, err
		}
		o.log("spans written to %s", o.spanPath)
	}
	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	res.Correct = t.failed == 0 && t.attempted > 0
	for _, p := range t.problems {
		o.log("FAIL: %s", p)
	}
	if !res.Correct {
		o.log("traced run rejected: its outputs do not match the untraced run")
		return res, nil
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return res, nil
}

// resetPeakRSS restarts the kernel's peak-resident-set counter (VmHWM) so
// that the peak read after the measured phase covers that phase alone.
// Freed heap goes back to the OS first, so that the fixtures and the
// warm-up do not set the baseline.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB returns the peak resident set since the last reset.
func peakRSSMiB() (float64, error) {
	kb, err := procStatusKB("VmHWM:")
	return float64(kb) / 1024, err
}

func procStatusKB(field string) (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New(field + " not found")
}

func main() {
	workloadFlag := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "length of the measured phase in seconds (at least one operation runs)")
	traceFlag := flag.Int("trace", 0, "1 makes the traced run and prints the per-layer metrics")
	flag.Parse()
	if err := mainErr(*workloadFlag, *seed, *seconds, *traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds float64, traceFlag int) error {
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", seconds)
	}
	// Everything the run writes stays under the checkout's build directory.
	base := ".bench_build"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o := &options{
		workload: name,
		seed:     seed,
		seconds:  seconds,
		trace:    traceFlag == 1,
		dir:      dir,
		sc:       fullScale,
		log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		},
	}
	if o.trace {
		o.spanPath = filepath.Join(base, "spans-"+name+".jsonl")
	}
	res, err := run(o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
