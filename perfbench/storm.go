package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"symbiosched/internal/coordctl"
	"symbiosched/internal/experiments"
)

// stormClients is the closed-loop worker count: each sends its next lease
// only after its previous submit returned.
const stormClients = 2

// stormBench is campaign-storm: an in-process coordinator daemon drained by
// closed-loop coordctl clients that submit header-valid shards with
// fabricated outcomes, so no simulation runs and the coordinator's own path
// is what is measured. The measured drains keep the daemon's state in
// memory: with the write-ahead journal on, a drain waits on one fsync per
// accepted shard, and on a shared virtual disk those waits spread drain
// times by more than a quarter from run to run. The traced run adds a
// journaled drain, which is where the journal's cost and its three-way
// reconciliation are measured.
type stormBench struct {
	o         *options
	campaigns []coordctl.Campaign
	shards    [][]experiments.Shard // per campaign, per shard index

	// The daemon of the next drain, started by setup.
	srv      *coordctl.Server
	ids      []string
	stateDir string      // the journal's directory; empty keeps state in memory
	last     stormCounts // the last drain's protocol counts
}

// stormCounts are one drain's protocol counts.
type stormCounts struct {
	leases, emptyPolls, submits, accepted, shards int
	journalBytes                                  int64
}

func newStorm(o *options) *stormBench { return &stormBench{o: o} }

// fixtures resolves the campaigns, each with its own seed and one shard per
// combination, and fabricates every shard a worker will submit.
func (b *stormBench) fixtures() error {
	for i := 0; i < b.o.sc.stormCampaigns; i++ {
		seed := b.o.seed + uint64(i) + 1
		probe, err := coordctl.NewCampaign("fig10", true, seed, b.o.sc.stormPool, "", 1)
		if err != nil {
			return err
		}
		combos, err := probe.Combos()
		if err != nil {
			return err
		}
		c, err := coordctl.NewCampaign("fig10", true, seed, b.o.sc.stormPool, "", combos)
		if err != nil {
			return err
		}
		shards, err := fabricateShards(c, combos)
		if err != nil {
			return err
		}
		b.campaigns = append(b.campaigns, c)
		b.shards = append(b.shards, shards)
	}
	return nil
}

// fabricateShards builds a header-valid shard per index: the coordinator
// validates fingerprints, ranges and outcome counts, not physics.
func fabricateShards(c coordctl.Campaign, combos int) ([]experiments.Shard, error) {
	spec, err := c.Spec()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(spec.Pool))
	for i, p := range spec.Pool {
		names[i] = p.Name
	}
	out := make([]experiments.Shard, c.ShardTotal)
	for idx := range out {
		lo, hi := experiments.ShardRange(combos, idx, c.ShardTotal)
		out[idx] = experiments.Shard{
			Format:      experiments.ShardFormat,
			PoolHash:    c.PoolHash,
			ConfigHash:  c.ConfigHash,
			Pool:        names,
			Policy:      spec.Policy.Name(),
			MixSize:     spec.MixSize,
			TotalCombos: combos,
			ComboLo:     lo,
			ComboHi:     hi,
			Index:       idx,
			Total:       c.ShardTotal,
			Outcomes:    make([]experiments.MixOutcome, hi-lo),
		}
	}
	return out, nil
}

func (b *stormBench) setupEachOp() bool { return true }

// setup starts a fresh in-memory daemon and submits every campaign.
func (b *stormBench) setup() error { return b.start("") }

// start starts a daemon journaling to stateDir (in memory when empty) and
// submits every campaign.
func (b *stormBench) start(stateDir string) error {
	b.stateDir = stateDir
	srv, err := coordctl.NewServer(coordctl.ServerOptions{StateDir: stateDir, LeaseTimeout: time.Minute})
	if err != nil {
		return err
	}
	b.ids = b.ids[:0]
	for _, c := range b.campaigns {
		id, err := srv.SubmitCampaign(c)
		if err != nil {
			srv.Close()
			return err
		}
		b.ids = append(b.ids, id)
	}
	b.srv = srv
	return nil
}

func (b *stormBench) op(t *tally) (opOut, error) { return b.drain(t, nil) }

// traced makes the storm's traced run: an untraced drain, a drain with a
// span per client call, which must reach the same reports, and a journaled
// drain.
func (b *stormBench) traced(t *tally, rec *recorder) (map[string]float64, error) {
	if err := b.setup(); err != nil {
		return nil, err
	}
	ref, err := b.drain(t, nil)
	if err != nil {
		return nil, err
	}
	b.o.log("untraced drain: %.3fs %s", ref.wall, ref.note)
	if err := b.setup(); err != nil {
		return nil, err
	}
	out, err := b.drain(t, rec)
	if err != nil {
		return nil, err
	}
	b.o.log("traced drain: %.3fs %s", out.wall, out.note)
	if out.digest != ref.digest {
		t.fail(b.last.shards, "traced drain digest %s differs from the untraced drain's %s", out.digest, ref.digest)
	}
	c := b.last
	if err := b.start(filepath.Join(b.o.dir, "journal")); err != nil {
		return nil, err
	}
	journaled, err := b.drain(t, nil)
	if err != nil {
		return nil, err
	}
	b.o.log("journaled drain: %.3fs %s", journaled.wall, journaled.note)
	if journaled.digest != ref.digest {
		t.fail(b.last.shards, "journaled drain digest %s differs from the in-memory drain's %s", journaled.digest, ref.digest)
	}
	ms := func(name string) []float64 { return scaled(rec.durations(name), 1e3) }
	return map[string]float64{
		"coordctl.lease_ms_p50":            quantile(ms("coordctl.lease"), 0.5),
		"coordctl.lease_ms_p99":            quantile(ms("coordctl.lease"), 0.99),
		"coordctl.submit_ms_p50":           quantile(ms("coordctl.submit"), 0.5),
		"coordctl.submit_ms_p99":           quantile(ms("coordctl.submit"), 0.99),
		"coordctl.empty_poll_frac":         float64(c.emptyPolls) / float64(max(c.leases, 1)),
		"coordctl.accept_frac":             float64(c.accepted) / float64(max(c.submits, 1)),
		"coordctl.journal_bytes_per_shard": float64(b.last.journalBytes) / float64(max(b.last.shards, 1)),
		"coordctl.journaled_drain_s":       journaled.wall,
		"coordctl.report_ms":               median(ms("coordctl.report")),
		"perfbench.trace_overhead_s":       out.wall - ref.wall,
	}, nil
}

// clientStats is what one closed-loop client saw.
type clientStats struct {
	rounds     []float64 // lease + submit, microseconds
	leases     int
	emptyPolls int
	submits    int
	accepted   []shardKey
	err        error
}

type shardKey struct{ campaign, index int }

// drain runs the clients until the daemon reports every campaign done,
// reconciles client accepts, daemon counters and journal records, and
// stops the daemon. A non-nil rec receives a span per client call.
func (b *stormBench) drain(t *tally, rec *recorder) (opOut, error) {
	defer b.stop()
	campaignOf := map[string]int{}
	for i, id := range b.ids {
		campaignOf[id] = i
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	transport := handlerTransport{b.srv.Handler()}
	stats := make([]clientStats, stormClients)
	var wg sync.WaitGroup
	var out opOut
	timed(&out, func() {
		for w := range stats {
			wg.Add(1)
			go func(st *clientStats, w int) {
				defer wg.Done()
				cl := coordctl.Client{BaseURL: daemonURL, Worker: fmt.Sprintf("storm-%d", w),
					HTTP: &http.Client{Transport: transport, Timeout: 30 * time.Second}}
				op := int64(w) << 32
				for ctx.Err() == nil {
					op++
					t0 := time.Now()
					wu, err := cl.Lease(ctx)
					t1 := time.Now()
					rec.add("coordctl.lease", 0, op, t0, t1)
					st.leases++
					if errors.Is(err, coordctl.ErrCampaignDone) {
						return
					}
					if err != nil {
						st.err = err
						return
					}
					if wu == nil {
						// Everything left is leased to the other client.
						st.emptyPolls++
						time.Sleep(time.Millisecond)
						continue
					}
					ci, ok := campaignOf[wu.CampaignID]
					if !ok || wu.ShardIndex < 0 || wu.ShardIndex >= len(b.shards[ci]) {
						st.err = fmt.Errorf("lease names unknown shard %s/%d", wu.CampaignID, wu.ShardIndex)
						return
					}
					res, err := cl.Submit(ctx, wu, b.shards[ci][wu.ShardIndex])
					t2 := time.Now()
					rec.add("coordctl.submit", 0, op, t1, t2)
					st.submits++
					st.rounds = append(st.rounds, float64(t2.Sub(t0).Nanoseconds())/1e3)
					if err != nil {
						st.err = err
						return
					}
					if res.Accepted {
						st.accepted = append(st.accepted, shardKey{ci, wu.ShardIndex})
					}
					if res.Done {
						return
					}
				}
			}(&stats[w], w)
		}
		wg.Wait()
	})

	total := 0
	for _, s := range b.shards {
		total += len(s)
	}
	t.attempted += total
	accepted := map[shardKey]int{}
	for _, st := range stats {
		if st.err != nil {
			t.fail(1, "client: %v", st.err)
		}
		for _, k := range st.accepted {
			accepted[k]++
		}
		out.latency = append(out.latency, st.rounds...)
	}
	var journaled map[shardKey]int
	if b.stateDir != "" {
		var err error
		if journaled, err = journalShards(b.stateDir, campaignOf); err != nil {
			return opOut{}, err
		}
	}
	for ci, s := range b.shards {
		for idx := range s {
			k := shardKey{ci, idx}
			if accepted[k] != 1 || (journaled != nil && journaled[k] != 1) {
				t.fail(1, "campaign %d shard %d: accepted %d times, journaled %d times", ci, idx, accepted[k], journaled[k])
			}
		}
	}
	ctr := b.srv.CountersSnapshot()
	if ctr.SubmitsAccepted != int64(total) || ctr.CampaignsDone != int64(len(b.ids)) {
		t.fail(1, "daemon counted %d accepted submits and %d campaigns done, want %d and %d",
			ctr.SubmitsAccepted, ctr.CampaignsDone, total, len(b.ids))
	}

	// The reports are deterministic (fabricated shards merge to empty
	// statistics), so their bytes form the drain's digest.
	h := fnv.New64a()
	for _, id := range b.ids {
		select {
		case <-b.srv.Done(id):
		default:
			t.fail(1, "campaign %s did not finish", id)
			continue
		}
		if err := b.srv.Err(id); err != nil {
			t.fail(1, "campaign %s: %v", id, err)
			continue
		}
		t0 := time.Now()
		rep, err := (&coordctl.Client{BaseURL: daemonURL, HTTP: &http.Client{Transport: transport}}).Report(ctx, id)
		rec.add("coordctl.report", 0, 0, t0, time.Now())
		if err != nil {
			t.fail(1, "report of campaign %s: %v", id, err)
			continue
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			return opOut{}, err
		}
		h.Write(buf)
	}
	fmt.Fprintf(h, "%d/%d", ctr.SubmitsAccepted, ctr.CampaignsDone)
	out.digest = fmt.Sprintf("%016x", h.Sum64())
	b.last = stormCounts{accepted: int(ctr.SubmitsAccepted), journalBytes: b.srv.JournalSize(), shards: total}
	for _, st := range stats {
		b.last.leases += st.leases
		b.last.emptyPolls += st.emptyPolls
		b.last.submits += st.submits
	}
	out.note = fmt.Sprintf("%d campaigns, %d shards, %d leases (%d empty), %d submits, digest %s",
		len(b.ids), total, b.last.leases, b.last.emptyPolls, b.last.submits, out.digest)
	return out, nil
}

// daemonURL is the base URL the clients address; handlerTransport never
// resolves it.
const daemonURL = "http://coordinator"

// handlerTransport carries each client request straight into the daemon's
// HTTP handler on the calling goroutine. Requests and responses still go
// through coordctl.Client and the daemon's routing, JSON and validation,
// but no socket: on a virtualized host, loopback wake-ups made drain times
// spread by more than a quarter across runs.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// stop shuts the drain's daemon down and removes its journal.
func (b *stormBench) stop() {
	if b.srv != nil {
		b.srv.Close()
	}
	if b.stateDir != "" {
		os.RemoveAll(b.stateDir)
	}
	b.srv = nil
}

// journalShards counts the journal's shard records per campaign and index.
func journalShards(stateDir string, campaignOf map[string]int) (map[shardKey]int, error) {
	recs, err := coordctl.ReadJournal(coordctl.JournalPath(stateDir))
	if err != nil {
		return nil, err
	}
	out := map[shardKey]int{}
	for _, r := range recs {
		if r.Kind != "shard" || r.Shard == nil {
			continue
		}
		if ci, ok := campaignOf[r.Campaign]; ok {
			out[shardKey{ci, r.Shard.Index}]++
		}
	}
	return out, nil
}
