// Command symbiosched regenerates the tables and figures of the paper's
// evaluation on the simulated testbed. Each experiment prints the same rows
// or series the paper reports.
//
// Usage:
//
//	symbiosched [flags] <experiment>
//
// Experiments: fig1, fig5 (also covers fig2), fig3a, fig3b, table1, fig10,
// fig11, fig12, fig13, fig14, overheads, quad, fairness, allocscale, all.
//
// Flags:
//
//	-quick        run at test scale (1/64 machine, short runs)
//	-csv          emit CSV instead of aligned tables where applicable
//	-seed N       workload seed
//	-workers N    simulation parallelism (default GOMAXPROCS)
//	-pool a,b,c   restrict the benchmark pool for fig10/fig11/fig12
//	-trace-dir d  sweep over compiled traces (cmd/tracegen) instead of the
//	              synthetic pool; -pool then filters by trace name
//	-trace-stream stream framed traces one frame at a time (multi-GB traces)
//	-progress     print live task throughput and worker utilization to stderr
//	-cpuprofile f write a CPU profile of the experiment to f
//	-memprofile f write an end-of-run heap profile to f
//
// Cross-machine sharding (fig10/fig11/fig12 only — see EXPERIMENTS.md):
//
//	symbiosched -shard 0/3 -out s0.json fig10   # on machine 0
//	symbiosched -shard 1/3 -out s1.json fig10   # on machine 1
//	symbiosched -shard 2/3 -out s2.json fig10   # on machine 2
//	symbiosched -merge 's*.json'                # anywhere: the full figure
//
// Or let a coordinator dispatch the shards (see cmd/coordinator): each
// worker leases shards, runs them, and submits the results until the
// campaign is merged:
//
//	symbiosched -worker http://coordinator:8377
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"symbiosched/internal/coordctl"
	"symbiosched/internal/experiments"
	"symbiosched/internal/metrics"
	"symbiosched/internal/workload"
)

func main() {
	quick := flag.Bool("quick", false, "run at test scale")
	csv := flag.Bool("csv", false, "emit CSV where applicable")
	md := flag.Bool("md", false, "emit GitHub-flavored markdown tables")
	seed := flag.Uint64("seed", 0, "workload seed (0 = default)")
	workers := flag.Int("workers", 0, "simulation parallelism (0 = GOMAXPROCS)")
	poolFlag := flag.String("pool", "", "comma-separated benchmark subset for the sweeps")
	traceDir := flag.String("trace-dir", "", "replace the sweep pool with the compiled traces (*.symc; import *.trc captures with tracegen -compile) in this directory (fig10-style sweeps and shards)")
	traceStream := flag.Bool("trace-stream", false, "with -trace-dir: replay framed traces one frame at a time instead of inflating them into memory")
	shardFlag := flag.String("shard", "", "run one sweep shard, as i/N (fig10/fig11/fig12 only)")
	outFlag := flag.String("out", "", "shard output path (default <fig>-shard-<i>of<N>.json)")
	mergeFlag := flag.String("merge", "", "merge shard files matching this glob and print the report")
	workerFlag := flag.String("worker", "", "serve a campaign coordinator at this URL as a shard worker")
	traceCache := flag.String("trace-cache", "", "with -worker: fetch a trace campaign's corpus from the coordinator into this content-addressed cache directory (default <user cache dir>/symbiosched/traces)")
	tokenFlag := flag.String("token", "", "with -worker: bearer token for a coordinator that requires worker auth")
	tlsCAFlag := flag.String("tls-ca", "", "with -worker: PEM file of root CAs to trust for an https coordinator (e.g. its self-signed cert)")
	progressFlag := flag.Bool("progress", false, "print live task throughput and worker utilization to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 && *mergeFlag == "" && *workerFlag == "" {
		usage()
		os.Exit(2)
	}

	if *workerFlag != "" {
		if err := runWorker(*workerFlag, *workers, *traceCache, *tokenFlag, *tlsCAFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers

	var prog *progress
	if *progressFlag {
		prog = newProgress(cfg)
		cfg.OnTask = prog.onTask
		defer prog.summary()
	}

	pool, err := resolvePool(*poolFlag, *traceDir, *traceStream)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	emit := func(t metrics.Table) {
		switch {
		case *csv:
			fmt.Print(t.CSV())
		case *md:
			fmt.Println(t.Markdown())
		default:
			fmt.Println(t.String())
		}
	}

	if *mergeFlag != "" {
		report, shards, err := experiments.MergeShardFiles(*mergeFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, s := range shards {
			fmt.Fprintf(os.Stderr, "shard %d/%d: combos [%d,%d) of %d, %d outcomes, %.1fs\n",
				s.Index, s.Total, s.ComboLo, s.ComboHi, s.TotalCombos, len(s.Outcomes), s.ElapsedSeconds)
		}
		emit(report.Table())
		return
	}

	if *shardFlag != "" {
		if err := runShard(cfg, *shardFlag, flag.Arg(0), *outFlag, pool); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	run := func(name string) bool {
		start := time.Now()
		defer func() {
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
		}()
		switch name {
		case "fig1":
			emit(experiments.Figure1(cfg).Table())
		case "fig2", "fig5":
			res := experiments.Figure5(cfg)
			fmt.Println(res.Render())
			fmt.Printf("correlation with true footprint: occupancy weight %.3f, miss counter %.3f, TLB misses %.3f\n\n",
				res.OccupancyCorr, res.MissCorr, res.TLBCorr)
		case "fig3a":
			emit(experiments.Figure3a(cfg).Table())
		case "fig3b":
			emit(experiments.Figure3b(cfg).Table())
		case "table1":
			emit(experiments.Table1(cfg).Table())
		case "fig10":
			emit(experiments.Figure10(cfg, pool).Table())
		case "fig11":
			emit(experiments.Figure11(cfg, pool).Table())
		case "fig12":
			emit(experiments.Figure12(cfg, poolOrNil(pool, workload.PARSEC())).Table())
		case "fig13":
			emit(experiments.Figure13(cfg).Table())
		case "fig14":
			emit(experiments.Figure14(cfg).Table())
		case "overheads":
			emit(experiments.Overheads(2).Table())
		case "quad":
			qc := cfg
			if qc.CandidateLimit == 0 && *quick {
				qc.CandidateLimit = 15
			}
			emit(experiments.QuadCore(qc, nil).Table())
		case "fairness":
			emit(experiments.Fairness(cfg).Table())
		case "allocscale":
			emit(experiments.AllocScale(cfg))
		case "pairs":
			emit(experiments.Figure3b(cfg).MatrixTable())
		default:
			return false
		}
		return true
	}

	name := flag.Arg(0)
	if name == "list" {
		t := metrics.Table{
			Title:   "Synthetic benchmark pool",
			Headers: []string{"benchmark", "class", "threads"},
		}
		for _, p := range append(workload.SPEC2006(), workload.PARSEC()...) {
			t.AddRow(p.Name, p.Class.String(), p.Threads)
		}
		emit(t)
		return
	}
	if name == "all" {
		for _, n := range []string{"fig1", "fig5", "fig3a", "fig3b", "table1",
			"fig10", "fig11", "fig12", "fig13", "fig14", "overheads",
			"quad", "fairness"} {
			run(n)
		}
		return
	}
	if !run(name) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
		usage()
		os.Exit(2) // nothing ran, so the skipped profile defers lose nothing
	}
}

// resolvePool builds the benchmark pool the sweeps run over. Without
// -trace-dir it resolves the comma-separated -pool names against the
// synthetic catalog (empty means each experiment's default pool). With
// -trace-dir the pool is the directory's compiled traces — held in shared
// run-length form, or, for framed files under -trace-stream, streamed one
// frame at a time — and -pool filters it by trace name.
func resolvePool(s, traceDir string, stream bool) ([]workload.Profile, error) {
	var names []string
	if s != "" {
		for _, n := range strings.Split(s, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	var out []workload.Profile
	switch {
	case traceDir != "":
		files, err := experiments.ListTraceDir(traceDir)
		if err != nil {
			return nil, err
		}
		if out, err = experiments.TracePoolFromFiles(files, stream); err != nil {
			return nil, err
		}
		if names != nil {
			if out, err = experiments.SelectProfiles(out, names); err != nil {
				return nil, err
			}
		}
	case names != nil:
		for _, name := range names {
			p, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	default:
		return nil, nil
	}
	if len(out) < 4 {
		return nil, fmt.Errorf("pool needs at least 4 benchmarks, got %d", len(out))
	}
	return out, nil
}

// poolOrNil substitutes nil (the experiment's default pool) when the user
// pool contains single-threaded benchmarks unsuitable for fig12.
func poolOrNil(pool []workload.Profile, dflt []workload.Profile) []workload.Profile {
	if pool == nil {
		return nil
	}
	for _, p := range pool {
		if p.Threads == 1 {
			fmt.Fprintln(os.Stderr, "note: -pool contains single-threaded benchmarks; using the PARSEC pool for fig12")
			return nil
		}
	}
	_ = dflt
	return pool
}

// runWorker serves a coordinator until its campaign completes: lease a
// shard, simulate it, submit the result, repeat — with jittered
// exponential backoff between failed or empty polls. Trace campaigns fetch
// their corpus from the coordinator into a content-addressed local cache
// (resumable, fingerprint-verified), so workers need no shared filesystem.
// Ctrl-C abandons the current lease cleanly (the coordinator re-dispatches
// it on expiry).
func runWorker(url string, simWorkers int, traceCache, token, tlsCA string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	w := coordctl.NewWorker(url, simWorkers)
	w.Client.Token = token
	if tlsCA != "" {
		cfg, err := coordctl.TLSConfigFromCA(tlsCA)
		if err != nil {
			return err
		}
		w.Client.TLS = cfg
	}
	if traceCache == "" {
		if base, err := os.UserCacheDir(); err == nil {
			traceCache = filepath.Join(base, "symbiosched", "traces")
		}
	}
	w.TraceCache = traceCache
	w.Logf = log.New(os.Stderr, "", log.Ltime).Printf
	return w.Loop(ctx)
}

// runShard parses "-shard i/N", runs that slice of the figure's sweep, and
// writes the shard file.
func runShard(cfg experiments.Config, shard, figure, out string, pool []workload.Profile) error {
	var idx, total int
	if n, err := fmt.Sscanf(shard, "%d/%d", &idx, &total); n != 2 || err != nil {
		return fmt.Errorf("bad -shard %q: want i/N (e.g. 0/3)", shard)
	}
	spec, err := experiments.SweepSpecFor(figure)
	if err != nil {
		return err
	}
	if pool != nil {
		// A restricted pool changes the combination space; the shard header's
		// pool hash binds the merge to the same -pool on every machine.
		spec.Pool = pool
	}
	cfg.ShardIndex, cfg.ShardTotal = idx, total
	start := time.Now()
	s, err := cfg.RunShard(spec)
	if err != nil {
		return err
	}
	if out == "" {
		out = fmt.Sprintf("%s-shard-%dof%d.json", spec.Figure, idx, total)
	}
	if err := experiments.WriteShard(out, s); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s: combos [%d,%d) of %d in %v\n",
		out, s.ComboLo, s.ComboHi, s.TotalCombos, time.Since(start).Round(time.Millisecond))
	return nil
}

// progress aggregates scheduler task completions into a live throughput line
// (at most one per second) and a final utilization summary, both written to
// w.
type progress struct {
	w       io.Writer
	workers int
	start   time.Time

	mu     sync.Mutex
	last   time.Time
	phase1 int
	cands  int
	steals int
	busy   time.Duration
}

func newProgress(cfg experiments.Config) *progress {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &progress{w: os.Stderr, workers: w, start: time.Now()}
}

// onTask is installed as Config.OnTask; it is called concurrently from the
// scheduler's workers. The rate counts every completed task, so studies with
// no phase 1 (Fig 3's pairwise runs) report their throughput too.
func (p *progress) onTask(ti experiments.TaskInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ti.Kind == experiments.TaskPhase1 {
		p.phase1++
	} else {
		p.cands++
	}
	if ti.Stolen {
		p.steals++
	}
	p.busy += ti.Duration
	now := time.Now()
	if now.Sub(p.last) < time.Second {
		return
	}
	p.last = now
	elapsed := now.Sub(p.start).Seconds()
	fmt.Fprintf(p.w, "progress: %d mixes profiled, %d candidates done, %.1f tasks/sec, %d stolen\n",
		p.phase1, p.cands, float64(p.phase1+p.cands)/elapsed, p.steals)
}

// summary prints the end-of-run totals: task counts, steal count, and
// worker utilization (busy simulation time over workers × wall time).
func (p *progress) summary() {
	p.mu.Lock()
	defer p.mu.Unlock()
	elapsed := time.Since(p.start)
	if p.phase1+p.cands == 0 || elapsed <= 0 {
		return
	}
	util := p.busy.Seconds() / (elapsed.Seconds() * float64(p.workers))
	fmt.Fprintf(p.w, "progress: total %d phase-1 + %d candidate tasks, %d stolen, %.0f%% worker utilization over %v\n",
		p.phase1, p.cands, p.steals, 100*util, elapsed.Round(time.Millisecond))
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: symbiosched [flags] <experiment>

experiments:
  fig1       footprints vs miss rate motivating example
  fig5       occupancy weight vs miss counters time series (covers fig2)
  fig3a      pairwise degradation, private-L2 SMP, pair on one core
  fig3b      pairwise degradation, shared-L2 dual core
  table1     povray/gobmk/libquantum/hmmer under all mappings
  fig10      per-benchmark max/avg improvement, native
  fig11      per-benchmark max/avg improvement, Xen-style VMs
  fig12      per-benchmark max/avg improvement, multi-threaded PARSEC
  fig13      the three allocation algorithms compared
  fig14      hash function comparison
  overheads  §5.4 storage-cost accounting
  quad       8 processes on 4 cores via hierarchical MIN-CUT (§3.3.2 extension)
  fairness   per-mapping slowdowns and Jain fairness index
  allocscale allocator latency: sparse decision vs incremental repair, P up to 4096
  pairs      full pairwise degradation matrix (the data behind fig3b)
  list       the synthetic benchmark catalog
  all        everything above

sharding (fig10/fig11/fig12):
  -shard i/N <fig>   run combos [i*C/N,(i+1)*C/N) and write a shard file (-out)
  -merge 'glob'      merge shard files into the figure's report (no experiment arg)
  -worker URL        lease and run shards from a campaign coordinator
                     (see cmd/coordinator; no experiment arg)

flags:
`)
	flag.PrintDefaults()
}
