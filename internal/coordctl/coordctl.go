// Package coordctl is the distributed campaign coordinator for the figure
// sweeps: a daemon that serves any number of campaigns, hands their shard
// work units to worker processes, re-dispatches stragglers when leases
// expire, validates every submission against the campaign's pool and config
// fingerprints, folds accepted shards into a streaming partial merge, and
// finishes each campaign with a report that is byte-identical to a
// single-process Sweep of it.
//
// The API is JSON over HTTP; every campaign is named by the id the daemon
// assigned at submission:
//
//	POST   /campaigns  CampaignRequest    → CampaignCreated (admin plane)
//	GET    /campaigns                     → []CampaignSummary
//	GET    /campaigns/{id}                → Status, including the partial
//	                                        ImprovementReport over the combos
//	                                        merged so far
//	GET    /campaigns/{id}/report         → the final ImprovementReport (409
//	                                        until the campaign completes)
//	DELETE /campaigns/{id}                → cancel (admin plane)
//	POST   /lease  {"worker": name}       → WorkUnit, 204 (nothing leasable
//	                                        right now, retry) or 410 (no
//	                                        campaign running, stop)
//	POST   /submit?campaign=ID&lease=L    → SubmitResult (422 on a shard that
//	       Shard JSON                       fails validation or names no
//	                                        campaign)
//	GET    /trace/{fingerprint}           → one corpus trace file
//	GET    /metrics                       → Prometheus text
//
// Failure semantics: a shard whose lease expires goes back to pending and
// is handed to the next idle worker; a shard that exhausts MaxAttempts
// marks the campaign failed. Duplicate completions (a straggler finishing
// after its shard was re-dispatched) are resolved deterministically by
// keeping the first result that validates — later ones are acknowledged as
// superseded and discarded, which cannot change the report because both
// workers computed the same deterministic outcomes. A submission that
// fails validation (wrong pool/config hash, wrong range, truncated
// outcomes) is rejected and never merged; workers are untrusted with
// respect to configuration, trusted with respect to arithmetic.
package coordctl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"symbiosched/internal/experiments"
	"symbiosched/internal/workload"
)

// Campaign is the self-describing work order a coordinator serves with
// every lease: enough for a worker with the same build to reconstruct the
// exact sweep, plus the fingerprints that let both sides detect when it
// cannot. Pool is empty when the figure's default pool applies. TraceDir,
// when set, replaces the figure's synthetic pool with the trace captures in
// that directory — the path must resolve to byte-identical traces on every
// worker (the pool hash covers each file's content fingerprint, so a worker
// with stale captures is rejected at submit, not merged).
type Campaign struct {
	Figure   string   `json:"figure"`
	Quick    bool     `json:"quick"`
	Seed     uint64   `json:"seed,omitempty"`
	Pool     []string `json:"pool,omitempty"`
	TraceDir string   `json:"trace_dir,omitempty"`
	// Traces is the content-addressed corpus manifest of a trace campaign:
	// one ref per pool trace, in pool order. A worker without the
	// coordinator's trace directory fetches each ref from the coordinator's
	// /trace/<fingerprint> endpoint into a local cache and rebuilds the
	// exact pool from the manifest — the pool hash pins the content either
	// way, so a fetch that resolves different bytes is rejected before any
	// simulation runs.
	Traces     []experiments.TraceRef `json:"traces,omitempty"`
	ShardTotal int                    `json:"shard_total"`
	PoolHash   string                 `json:"pool_hash"`
	ConfigHash string                 `json:"config_hash"`
}

// NewCampaign resolves the figure and pool, computes the fingerprints and
// returns the ready-to-serve campaign descriptor. A non-empty traceDir makes
// the campaign trace-driven (see Campaign.TraceDir); pool then filters the
// trace pool by name instead of naming synthetic benchmarks.
func NewCampaign(figure string, quick bool, seed uint64, pool []string, traceDir string, shardTotal int) (Campaign, error) {
	if shardTotal < 1 {
		return Campaign{}, fmt.Errorf("coordctl: campaign needs at least 1 shard, got %d", shardTotal)
	}
	c := Campaign{Figure: figure, Quick: quick, Seed: seed, Pool: pool, TraceDir: traceDir, ShardTotal: shardTotal}
	if traceDir != "" {
		corpus, err := experiments.LoadCorpus(traceDir)
		if err != nil {
			return Campaign{}, err
		}
		c.Traces = corpus.Refs
		if len(pool) > 0 {
			// The manifest only names traces the campaign pool uses, so a
			// fetching worker never downloads a restricted-out capture.
			want := make(map[string]bool, len(pool))
			for _, n := range pool {
				want[n] = true
			}
			kept := c.Traces[:0:0]
			for _, ref := range c.Traces {
				if want[ref.Name] {
					kept = append(kept, ref)
				}
			}
			c.Traces = kept
		}
	}
	spec, err := c.Spec()
	if err != nil {
		return Campaign{}, err
	}
	c.PoolHash = experiments.PoolHashProfiles(spec.Pool)
	c.ConfigHash = c.Config().CampaignHash()
	return c, nil
}

// Config reconstructs the simulation configuration the campaign describes.
// Execution parameters (worker parallelism, shard geometry) are the
// caller's to fill in — they do not affect results or the config hash.
func (c Campaign) Config() experiments.Config {
	cfg := experiments.Default()
	if c.Quick {
		cfg = experiments.Quick()
	}
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	return cfg
}

// Spec resolves the campaign's figure to its sweep spec, applying the trace
// pool and/or the pool restriction when the campaign carries them. Trace
// campaigns load compiled pools: shard workers run thousands of mixes over a
// handful of traces, so the shared one-time decode is the right trade.
func (c Campaign) Spec() (experiments.SweepSpec, error) {
	spec, err := experiments.SweepSpecFor(c.Figure)
	if err != nil {
		return spec, err
	}
	switch {
	case c.TraceDir != "":
		pool, err := experiments.TracePoolFromDir(c.TraceDir)
		if err != nil {
			return spec, err
		}
		if len(c.Pool) > 0 {
			if pool, err = experiments.SelectProfiles(pool, c.Pool); err != nil {
				return spec, err
			}
		}
		spec.Pool = pool
	case len(c.Pool) > 0:
		pool := make([]workload.Profile, 0, len(c.Pool))
		for _, n := range c.Pool {
			p, err := workload.ByName(n)
			if err != nil {
				return spec, err
			}
			pool = append(pool, p)
		}
		spec.Pool = pool
	}
	return spec, nil
}

// SpecFromFiles resolves the campaign's sweep spec with a trace pool built
// from an explicit file list — a worker's fetched-and-verified corpus cache —
// instead of the coordinator-side TraceDir path. The files must be the
// campaign's Traces in manifest order (Client.FetchTrace + the corpus cache
// produce exactly that); the resulting pool hashes identically to the
// coordinator's or the worker refuses the unit before simulating anything.
func (c Campaign) SpecFromFiles(files []experiments.TraceFile) (experiments.SweepSpec, error) {
	spec, err := experiments.SweepSpecFor(c.Figure)
	if err != nil {
		return spec, err
	}
	pool, err := experiments.TracePoolFromFiles(files, false)
	if err != nil {
		return spec, err
	}
	if len(c.Pool) > 0 {
		if pool, err = experiments.SelectProfiles(pool, c.Pool); err != nil {
			return spec, err
		}
	}
	spec.Pool = pool
	return spec, nil
}

// Combos returns the size of the campaign's combination space, the number
// of mixes experiments.Combinations lists, counted in closed form.
func (c Campaign) Combos() (int, error) {
	spec, err := c.Spec()
	if err != nil {
		return 0, err
	}
	return binomial(len(spec.Pool), spec.MixSize)
}

// binomial returns C(n, k), or 0 when k is outside [0, n], and refuses a
// count an int cannot hold. With m = min(k, n-k), step i leaves c =
// C(n-m+i, i), which grows with i, so an intermediate that overflows means
// the result does too; each step multiplies in 128 bits before its exact
// division.
func binomial(n, k int) (int, error) {
	if k < 0 || k > n {
		return 0, nil
	}
	m := min(k, n-k) // C(n, k) = C(n, n-k)
	c := uint64(1)
	for i := uint64(1); i <= uint64(m); i++ {
		hi, lo := bits.Mul64(c, uint64(n-m)+i)
		if hi < i { // else the quotient needs more than 64 bits
			c, _ = bits.Div64(hi, lo, i)
		}
		if hi >= i || c > math.MaxInt {
			return 0, fmt.Errorf("coordctl: C(%d, %d) combinations overflow an int", n, k)
		}
	}
	return int(c), nil
}

// WorkUnit is one granted lease: the campaign, the shard to run, and the
// lease the worker must present at submission.
type WorkUnit struct {
	Campaign Campaign `json:"campaign"`
	// CampaignID is the daemon-assigned id the worker must echo back when
	// submitting (?campaign=<id>) — unlike the lease id it stays valid
	// across a coordinator restart, because it is journaled with the spec.
	CampaignID string `json:"campaign_id"`
	ShardIndex int    `json:"shard_index"`
	LeaseID    string `json:"lease_id"`
	// Attempt is 1 for the first dispatch of the shard, higher for
	// re-dispatches after expired leases or rejected submissions.
	Attempt int `json:"attempt"`
}

// SubmitResult acknowledges a shard submission.
type SubmitResult struct {
	// Accepted means the shard was validated and folded into the merge.
	Accepted bool `json:"accepted"`
	// Superseded means another worker's result for the same shard was
	// already accepted; this submission was discarded, which is fine.
	Superseded bool `json:"superseded,omitempty"`
	// CampaignDone means the submission's campaign reached a terminal
	// state; other campaigns may still have work.
	CampaignDone bool `json:"campaign_done,omitempty"`
	// Done means no campaign on the coordinator is running and the worker
	// fleet can stand down.
	Done  bool   `json:"done,omitempty"`
	Error string `json:"error,omitempty"`
}

// Message body limits, enforced by the server on requests and by the
// client on the lease and submit responses. Everything but a shard is a
// few hundred bytes; a whole-space Fig 10 shard is 495 outcomes, well
// under 1 MiB.
const (
	maxControlBody = 1 << 20  // lease and campaign requests, lease and submit responses
	maxShardBody   = 64 << 20 // a submitted shard
)

// errBodyTooLarge marks a message body over its limit; the server answers
// it with 413 Request Entity Too Large.
var errBodyTooLarge = errors.New("coordctl: body too large")

// readJSON reads a whole message body of at most limit bytes and
// unmarshals it into v. The buffer is sized from the declared length when
// there is one (plus a spare byte, so reaching EOF needs no growth). Data
// after the JSON value is an error.
func readJSON(body io.Reader, declared, limit int64, v any) error {
	if declared > limit {
		return fmt.Errorf("%w: %d bytes, limit %d", errBodyTooLarge, declared, limit)
	}
	size := int64(512)
	if declared >= 0 {
		size = declared + 1
	}
	buf := make([]byte, 0, size)
	r := io.LimitReader(body, limit+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
	if int64(len(buf)) > limit {
		return fmt.Errorf("%w: over %d bytes", errBodyTooLarge, limit)
	}
	return json.Unmarshal(buf, v)
}

// CampaignRequest is the POST /campaigns body: the user-facing knobs of a
// campaign, resolved to a full Campaign (fingerprints, trace manifest) on
// the coordinator.
type CampaignRequest struct {
	Figure   string   `json:"figure"`
	Quick    bool     `json:"quick,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	Pool     []string `json:"pool,omitempty"`
	TraceDir string   `json:"trace_dir,omitempty"`
	Shards   int      `json:"shards"`
}

// CampaignCreated is the POST /campaigns response.
type CampaignCreated struct {
	ID       string   `json:"id"`
	Campaign Campaign `json:"campaign"`
	Combos   int      `json:"combos"`
}

// CampaignSummary is one row of GET /campaigns.
type CampaignSummary struct {
	ID             string  `json:"id"`
	Figure         string  `json:"figure"`
	State          string  `json:"state"` // running | done | failed | cancelled
	ShardTotal     int     `json:"shard_total"`
	ShardsDone     int     `json:"shards_done"`
	TotalCombos    int     `json:"total_combos"`
	CombosCovered  int     `json:"combos_covered"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Error          string  `json:"error,omitempty"`
}

// Status is the GET /campaigns/{id} document: the campaign, the per-shard
// state machine, and the streaming partial merge.
type Status struct {
	ID             string        `json:"id"`
	Figure         string        `json:"figure"`
	State          string        `json:"state"` // running | done | failed | cancelled
	Error          string        `json:"error,omitempty"`
	ElapsedSeconds float64       `json:"elapsed_seconds"`
	TotalCombos    int           `json:"total_combos"`
	CombosCovered  int           `json:"combos_covered"`
	Shards         []ShardStatus `json:"shards"`
	// Partial is the improvement report over the combos merged so far;
	// once State is "done" it is the final report.
	Partial *experiments.ImprovementReport `json:"partial,omitempty"`
}

// ShardStatus is one shard's row in a campaign's status.
type ShardStatus struct {
	Index    int    `json:"index"`
	State    string `json:"state"` // pending | leased | done | failed
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts"`
	// ElapsedSeconds is the accepted shard's simulation wall time (done),
	// or the age of the current lease (leased).
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	Error          string  `json:"error,omitempty"`
}
