package coordctl

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"symbiosched/internal/experiments"
)

// This file is the coordinator load-smoke harness, shared between the CI
// gate (TestCoordinatorLoadSmoke) and cmd/bench's coord layer:
// a fleet of fake workers hammering one daemon over real HTTP with
// fabricated (header-valid, physics-free) shards, so what is measured is the
// coordinator's own path — mutex, lease table, validation, journal fsync —
// and not simulation time.

// LoadSmokeOptions sizes a coordinator load run.
type LoadSmokeOptions struct {
	// Workers is the concurrent fake-worker count (default 50).
	Workers int
	// Shards is the campaign's shard count (default 64, over a C(8,4)=70
	// combo space, so nearly every lease round trip carries work).
	Shards int
	// StateDir, when set, journals the run there; empty uses a fresh temp
	// dir (removed afterwards), so the journal fsync cost is always in the
	// measured path.
	StateDir string
	// WorkerToken, when set, authenticates the fleet — the auth path is
	// then part of what is measured.
	WorkerToken string
}

// LoadSmokeResult is what the harness measured and reconciled.
type LoadSmokeResult struct {
	Workers         int     `json:"workers"`
	Shards          int     `json:"shards"`
	Combos          int     `json:"combos"`
	DurationSec     float64 `json:"duration_sec"`
	LeaseRequests   int     `json:"lease_requests"`   // client-side round trips
	LeasesPerSec    float64 `json:"leases_per_sec"`   // request throughput
	LeaseP50Micros  float64 `json:"lease_p50_micros"` // round-trip latency
	LeaseP99Micros  float64 `json:"lease_p99_micros"`
	SubmitP50Micros float64 `json:"submit_p50_micros"`
	SubmitP99Micros float64 `json:"submit_p99_micros"`

	Counters            Counters `json:"counters"`
	JournalShardRecords int      `json:"journal_shard_records"`
	JournalBytes        int64    `json:"journal_bytes"`
}

// fabricateShard builds a header-valid shard with empty-but-counted
// outcomes — the merge validates counts and fingerprints, not physics, so
// protocol benchmarks and tests need not pay for simulation.
func fabricateShard(c Campaign, idx int) (experiments.Shard, error) {
	combos, err := c.Combos()
	if err != nil {
		return experiments.Shard{}, err
	}
	spec, err := c.Spec()
	if err != nil {
		return experiments.Shard{}, err
	}
	lo, hi := experiments.ShardRange(combos, idx, c.ShardTotal)
	names := make([]string, len(spec.Pool))
	for i, p := range spec.Pool {
		names[i] = p.Name
	}
	return experiments.Shard{
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
	}, nil
}

// loadSmokePool is the load campaign's 8-benchmark pool: C(8,4) = 70 combos.
var loadSmokePool = []string{"mcf", "omnetpp", "soplex", "gcc", "perlbench", "bzip2", "libquantum", "hmmer"}

// LoadSmoke drives one daemon with a fleet of concurrent fake workers until
// the campaign completes, then reconciles every view of the run — client
// accept counts, server counters, journal records — before reporting
// throughput and latency. It errors (rather than returning numbers) when any
// reconciliation fails: a lease double-resolved, a counter that disagrees
// with the journal, a shard journaled twice.
func LoadSmoke(opts LoadSmokeOptions) (LoadSmokeResult, error) {
	if opts.Workers <= 0 {
		opts.Workers = 50
	}
	if opts.Shards <= 0 {
		opts.Shards = 64
	}
	stateDir := opts.StateDir
	if stateDir == "" {
		dir, err := os.MkdirTemp("", "coordsmoke-*")
		if err != nil {
			return LoadSmokeResult{}, err
		}
		defer os.RemoveAll(dir)
		stateDir = dir
	}

	campaign, err := NewCampaign("fig10", true, 0, loadSmokePool, "", opts.Shards)
	if err != nil {
		return LoadSmokeResult{}, err
	}
	srv, err := NewServer(ServerOptions{
		StateDir:     stateDir,
		LeaseTimeout: time.Minute,
		MaxAttempts:  3,
		WorkerToken:  opts.WorkerToken,
		AdminToken:   opts.WorkerToken,
	})
	if err != nil {
		return LoadSmokeResult{}, err
	}
	defer srv.Close()
	id, err := srv.SubmitCampaign(campaign)
	if err != nil {
		return LoadSmokeResult{}, err
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Pre-fabricate every shard once; workers share the slice read-only.
	shards := make([]experiments.Shard, opts.Shards)
	for i := range shards {
		if shards[i], err = fabricateShard(campaign, i); err != nil {
			return LoadSmokeResult{}, err
		}
	}

	type workerStats struct {
		leaseMicros, submitMicros []float64
		accepted                  []int // shard indices this worker got Accepted for
		err                       error
	}
	stats := make([]workerStats, opts.Workers)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for wi := 0; wi < opts.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			st := &stats[wi]
			cl := Client{BaseURL: hs.URL, Worker: fmt.Sprintf("smoke-%d", wi), Token: opts.WorkerToken}
			for ctx.Err() == nil {
				t0 := time.Now()
				wu, err := cl.Lease(ctx)
				st.leaseMicros = append(st.leaseMicros, float64(time.Since(t0).Microseconds()))
				if err == ErrCampaignDone {
					return
				}
				if err != nil {
					st.err = err
					return
				}
				if wu == nil {
					// Everything is leased out; yield and poll again.
					time.Sleep(time.Millisecond)
					continue
				}
				t0 = time.Now()
				res, err := cl.Submit(ctx, wu, shards[wu.ShardIndex])
				st.submitMicros = append(st.submitMicros, float64(time.Since(t0).Microseconds()))
				if err != nil {
					st.err = err
					return
				}
				if res.Accepted {
					st.accepted = append(st.accepted, wu.ShardIndex)
				}
				if res.Done {
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// --- reconcile ------------------------------------------------------
	res := LoadSmokeResult{Workers: opts.Workers, Shards: opts.Shards, DurationSec: elapsed.Seconds()}
	res.Combos, _ = campaign.Combos()
	acceptedBy := make(map[int]int)
	var leaseMicros, submitMicros []float64
	for wi := range stats {
		if err := stats[wi].err; err != nil {
			return res, fmt.Errorf("coordctl: load worker %d: %w", wi, err)
		}
		for _, idx := range stats[wi].accepted {
			acceptedBy[idx]++
		}
		leaseMicros = append(leaseMicros, stats[wi].leaseMicros...)
		submitMicros = append(submitMicros, stats[wi].submitMicros...)
	}
	for idx, n := range acceptedBy {
		if n != 1 {
			return res, fmt.Errorf("coordctl: shard %d was accepted %d times — lease double-resolved", idx, n)
		}
	}
	if len(acceptedBy) != opts.Shards {
		return res, fmt.Errorf("coordctl: %d shards accepted, campaign has %d", len(acceptedBy), opts.Shards)
	}
	select {
	case <-srv.Done(id):
	default:
		return res, fmt.Errorf("coordctl: fleet drained but campaign %s is not done", id)
	}
	if err := srv.Err(id); err != nil {
		return res, err
	}

	res.Counters = srv.CountersSnapshot()
	if got, want := res.Counters.SubmitsAccepted, int64(opts.Shards); got != want {
		return res, fmt.Errorf("coordctl: metrics count %d accepted submits, journal-truth is %d", got, want)
	}
	recs, err := ReadJournal(JournalPath(stateDir))
	if err != nil {
		return res, err
	}
	journaled := make(map[int]int)
	campaignRecs := 0
	for _, rec := range recs {
		switch rec.Kind {
		case recordShard:
			journaled[rec.Shard.Index]++
		case recordCampaign:
			campaignRecs++
		}
	}
	for idx, n := range journaled {
		if n != 1 {
			return res, fmt.Errorf("coordctl: journal holds %d records for shard %d", n, idx)
		}
	}
	res.JournalShardRecords = len(journaled)
	if int64(res.JournalShardRecords) != res.Counters.SubmitsAccepted {
		return res, fmt.Errorf("coordctl: journal holds %d shard records, counters claim %d accepted",
			res.JournalShardRecords, res.Counters.SubmitsAccepted)
	}
	if int64(campaignRecs) != res.Counters.CampaignsSubmitted {
		return res, fmt.Errorf("coordctl: journal holds %d campaign records, counters claim %d submitted",
			campaignRecs, res.Counters.CampaignsSubmitted)
	}
	res.JournalBytes = srv.JournalSize()

	res.LeaseRequests = len(leaseMicros)
	if elapsed > 0 {
		res.LeasesPerSec = float64(len(leaseMicros)) / elapsed.Seconds()
	}
	res.LeaseP50Micros, res.LeaseP99Micros = percentiles(leaseMicros)
	res.SubmitP50Micros, res.SubmitP99Micros = percentiles(submitMicros)
	return res, nil
}

// percentiles returns the p50 and p99 of a sample set (0,0 when empty).
func percentiles(xs []float64) (p50, p99 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.50), at(0.99)
}
