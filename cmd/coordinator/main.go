// Command coordinator runs the campaign coordinator daemon, or drives one.
//
// Daemon (default): a persistent multi-campaign service. Campaigns are
// submitted, listed, watched and cancelled over the REST API (or with the
// admin client below); workers (`symbiosched -worker URL`) lease their
// shards. With -state-dir the daemon journals every accepted campaign and
// shard and, restarted over the same directory, resumes its campaigns under
// their ids without recomputing any accepted shard. Bearer tokens
// (-worker-token/-admin-token) and TLS (-tls-cert/-tls-key) guard
// non-trusted networks; /metrics serves Prometheus text.
//
//	coordinator -state-dir /var/lib/coord -worker-token W -admin-token A
//	symbiosched -worker http://host:8377 -token W   # on each worker machine
//
// Admin client (-connect): drive a running daemon. Submitting a campaign
// watches it to the end and prints its table (exit 1 if it fails) —
// byte-identical to a single-process `symbiosched <fig>` run; -watch does
// the same for a campaign already submitted, e.g. after a daemon restart.
// The client's flags (their help starts "with -connect:") are refused
// without -connect rather than starting a daemon with nothing to serve.
//
//	coordinator -connect http://host:8377 -token A -figure fig11 -shards 16 [-out report.json]
//	coordinator -connect http://host:8377 -token A -list
//	coordinator -connect http://host:8377 -token A -cancel c3
//	coordinator -connect http://host:8377 -token A -watch c2 [-out report.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"symbiosched/internal/coordctl"
)

func main() {
	addr := flag.String("addr", ":8377", "listen address")
	stateDir := flag.String("state-dir", "", "journal accepted campaigns and shards here; a restarted daemon resumes from it")
	figure := flag.String("figure", "fig10", "with -connect: sweep to submit: fig10, fig11 or fig12")
	shards := flag.Int("shards", 4, "with -connect: number of shards to cut the campaign into")
	quick := flag.Bool("quick", false, "with -connect: run the campaign at test scale")
	seed := flag.Uint64("seed", 0, "with -connect: workload seed (0 = default)")
	poolFlag := flag.String("pool", "", "with -connect: comma-separated benchmark subset (default: the figure's pool)")
	traceDir := flag.String("trace-dir", "", "with -connect: replace the figure's pool with the compiled traces (*.symc) in this directory on the daemon's host; workers fetch them from its content-addressed /trace endpoint")
	leaseTimeout := flag.Duration("lease-timeout", 10*time.Minute, "re-dispatch a shard when its lease is this old")
	maxAttempts := flag.Int("max-attempts", 3, "dispatch attempts per shard before the campaign fails")
	statusEvery := flag.Duration("status-every", 15*time.Second, "with -connect: progress line period on stderr while watching (0 disables)")
	out := flag.String("out", "", "with -connect: write the final report as JSON to this path")
	csv := flag.Bool("csv", false, "with -connect: emit the final table as CSV")
	workerToken := flag.String("worker-token", "", "bearer token required on worker endpoints (lease/submit/campaign reads/trace/metrics)")
	adminToken := flag.String("admin-token", "", "bearer token required to submit or cancel campaigns")
	tlsCert := flag.String("tls-cert", "", "serve TLS with this certificate (requires -tls-key)")
	tlsKey := flag.String("tls-key", "", "TLS private key for -tls-cert")
	connect := flag.String("connect", "", "act as an admin client against the daemon at this URL instead of serving")
	token := flag.String("token", "", "with -connect: bearer token for the requests")
	tlsCA := flag.String("tls-ca", "", "with -connect: PEM file of root CAs to trust over https (e.g. the daemon's self-signed cert)")
	list := flag.Bool("list", false, "with -connect: list the daemon's campaigns")
	cancel := flag.String("cancel", "", "with -connect: cancel this campaign id")
	watch := flag.String("watch", "", "with -connect: wait for this campaign and print its report")
	flag.Parse()

	if *connect == "" {
		// The daemon takes campaigns only over its API: a client flag
		// without -connect would start an idle daemon that never exits.
		flag.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Usage, "with -connect:") {
				fatal(fmt.Errorf("-%s is an admin-client flag and needs -connect URL (submit a campaign with: coordinator -connect URL -figure F -shards N)", f.Name))
			}
		})
	}
	if *connect != "" {
		runAdmin(adminArgs{
			url: *connect, token: *token, tlsCA: *tlsCA,
			list: *list, cancel: *cancel, watch: *watch,
			figure: *figure, quick: *quick, seed: *seed,
			pool: *poolFlag, traceDir: *traceDir, shards: *shards,
			statusEvery: *statusEvery, out: *out, csv: *csv,
		})
		return
	}
	if (*tlsCert != "") != (*tlsKey != "") {
		fatal(fmt.Errorf("-tls-cert and -tls-key must be set together"))
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv, err := coordctl.NewServer(coordctl.ServerOptions{
		StateDir:     *stateDir,
		LeaseTimeout: *leaseTimeout,
		MaxAttempts:  *maxAttempts,
		WorkerToken:  *workerToken,
		AdminToken:   *adminToken,
		Logger:       logger,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	scheme := "http"
	if *tlsCert != "" {
		scheme = "https"
	}
	logger.Info("coordinator listening", "url", fmt.Sprintf("%s://%s", scheme, ln.Addr()),
		"state_dir", *stateDir, "tls", *tlsCert != "",
		"worker_auth", *workerToken != "", "admin_auth", *adminToken != "")
	httpSrv := &http.Server{Handler: srv.Handler()}
	if *tlsCert != "" {
		err = httpSrv.ServeTLS(ln, *tlsCert, *tlsKey)
	} else {
		err = httpSrv.Serve(ln)
	}
	fatal(err) // every acknowledged event is already journaled
}

// adminArgs is everything the -connect admin client needs.
type adminArgs struct {
	url, token, tlsCA string
	list              bool
	cancel, watch     string
	figure            string
	quick             bool
	seed              uint64
	pool, traceDir    string
	shards            int
	statusEvery       time.Duration
	out               string
	csv               bool
}

// runAdmin drives a running daemon: list, cancel, watch, or submit+watch.
func runAdmin(a adminArgs) {
	cl := coordctl.Client{BaseURL: a.url, Worker: "admin", Token: a.token}
	if a.tlsCA != "" {
		cfg, err := coordctl.TLSConfigFromCA(a.tlsCA)
		if err != nil {
			fatal(err)
		}
		cl.TLS = cfg
	}
	ctx := context.Background()
	switch {
	case a.list:
		campaigns, err := cl.Campaigns(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-6s %-6s %-10s %10s %14s %10s\n", "ID", "FIGURE", "STATE", "SHARDS", "COMBOS", "ELAPSED")
		for _, c := range campaigns {
			fmt.Printf("%-6s %-6s %-10s %5d/%-4d %7d/%-6d %9.0fs\n",
				c.ID, c.Figure, c.State, c.ShardsDone, c.ShardTotal, c.CombosCovered, c.TotalCombos, c.ElapsedSeconds)
		}
	case a.cancel != "":
		if err := cl.CancelCampaign(ctx, a.cancel); err != nil {
			fatal(err)
		}
		fmt.Printf("campaign %s cancelled\n", a.cancel)
	case a.watch != "":
		watchCampaign(ctx, &cl, a, a.watch)
	default:
		var pool []string
		if a.pool != "" {
			for _, n := range strings.Split(a.pool, ",") {
				pool = append(pool, strings.TrimSpace(n))
			}
		}
		created, err := cl.SubmitCampaign(ctx, coordctl.CampaignRequest{
			Figure: a.figure, Quick: a.quick, Seed: a.seed,
			Pool: pool, TraceDir: a.traceDir, Shards: a.shards,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "coordinator: campaign %s submitted (%s, %d combos in %d shards)\n",
			created.ID, created.Campaign.Figure, created.Combos, created.Campaign.ShardTotal)
		watchCampaign(ctx, &cl, a, created.ID)
	}
}

// watchPoll is how often a watched campaign's status is polled.
const watchPoll = 500 * time.Millisecond

// watchCampaign polls a campaign to completion, logging progress every
// statusEvery, then prints its report; a campaign that fails or is cancelled
// exits 1.
func watchCampaign(ctx context.Context, cl *coordctl.Client, a adminArgs, id string) {
	var logged time.Time
	for {
		st, err := cl.Status(ctx, id)
		if err != nil {
			fatal(err)
		}
		if st.State == "done" {
			break
		}
		if st.State != "running" {
			fatal(fmt.Errorf("campaign %s %s: %s", id, st.State, st.Error))
		}
		if a.statusEvery > 0 && time.Since(logged) >= a.statusEvery {
			fmt.Fprintf(os.Stderr, "coordinator: %s %d/%d combos merged\n", id, st.CombosCovered, st.TotalCombos)
			logged = time.Now()
		}
		time.Sleep(watchPoll)
	}
	report, err := cl.Report(ctx, id)
	if err != nil {
		fatal(err)
	}
	if a.out != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(a.out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if a.csv {
		fmt.Print(report.Table().CSV())
	} else {
		fmt.Println(report.Table().String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coordinator:", err)
	os.Exit(1)
}
