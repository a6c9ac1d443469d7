package coordctl

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"symbiosched/internal/experiments"
)

// ErrNoCampaign is returned for operations naming a campaign id the
// coordinator does not serve.
var ErrNoCampaign = errors.New("coordctl: no such campaign")

// ErrCampaignCancelled is the terminal error of a campaign cancelled via the
// API; Err returns it and the campaign's status carries its message.
var ErrCampaignCancelled = errors.New("coordctl: campaign cancelled")

// ServerOptions configures a coordinator daemon.
type ServerOptions struct {
	// StateDir, when set, enables the write-ahead journal: accepted
	// campaigns and shards are fsynced there before they are acknowledged,
	// and NewServer replays the journal so a restarted coordinator resumes
	// its campaigns instead of recomputing them. Empty keeps all state in
	// memory (the pre-daemon behaviour).
	StateDir string
	// LeaseTimeout is how long a worker may hold a shard before it is
	// re-dispatched (default 10 minutes — generous against Quick-scale
	// shards, tight against a hung host).
	LeaseTimeout time.Duration
	// MaxAttempts bounds dispatches per shard before its campaign is
	// declared failed (default 3). A restart resets attempt counts for
	// unfinished shards — the journal records accepted work, not failures.
	MaxAttempts int
	// WorkerToken, when set, is the bearer token required on the worker
	// plane (/lease, /submit, /trace, /metrics, campaign list, status and
	// report). The admin token is accepted there too.
	WorkerToken string
	// AdminToken, when set, is the bearer token required to submit or
	// cancel campaigns. The fallback is symmetric: with only WorkerToken
	// set, it guards the admin plane as well, and with only AdminToken set,
	// it guards the worker plane as well — configuring one token never
	// leaves any mutating endpoint (campaign submit/cancel, lease, shard
	// submit) open.
	AdminToken string
	// Clock is a test hook (default time.Now).
	Clock func() time.Time
	// Logger receives one structured line per protocol event (lease,
	// submit, re-dispatch, reject, merge, cancel) with campaign and worker
	// provenance. Default: discard, with every level disabled, so no record
	// is built.
	Logger *slog.Logger
}

// Server is the campaign coordinator daemon: any number of concurrent
// campaigns, each with its own lease table and streaming merge, behind one
// HTTP API — plus the write-ahead journal that makes accepted state survive
// restarts and the /metrics view that makes the whole thing observable.
type Server struct {
	opts ServerOptions
	mux  *http.ServeMux

	mu        sync.Mutex
	campaigns map[string]*campaignState
	order     []string         // campaign ids in submission order
	running   []*campaignState // running campaigns in submission order (lease priority)
	corpora   []*experiments.Corpus
	corpusDir map[string]bool
	journal   *Journal
	ctr       Counters
	start     time.Time
	seq       int  // campaign id sequence (c1, c2, ...)
	replaying bool // true while replay() drives the state machine
}

// campaignState is one campaign's bookkeeping behind the server mutex.
// While it runs, merger folds its accepted shards; when it ends, the merge
// is reduced once into partial (the final report of a done campaign) and
// the merger, with every outcome it held, is dropped.
type campaignState struct {
	id      string
	c       Campaign
	combos  int
	table   *leaseTable
	merger  *experiments.ShardMerger // nil once the campaign has ended
	covered int                      // combos merged
	partial *experiments.ImprovementReport
	start   time.Time
	state   string // running | done | failed | cancelled
	failure error
	done    chan struct{}
}

func (cs *campaignState) running() bool { return cs.state == "running" }

// NewServer builds a coordinator daemon. With StateDir set, the journal is
// replayed first: campaigns resume with every previously accepted shard
// already merged. A journal with mid-file damage fails NewServer with
// ErrJournalCorrupt; a torn tail (crash mid-append) is truncated silently.
func NewServer(opts ServerOptions) (*Server, error) {
	if opts.LeaseTimeout <= 0 {
		opts.LeaseTimeout = 10 * time.Minute
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	s := &Server{
		opts:      opts,
		campaigns: make(map[string]*campaignState),
		corpusDir: make(map[string]bool),
		start:     opts.Clock(),
	}
	if opts.StateDir != "" {
		j, recs, err := OpenJournal(opts.StateDir)
		if err != nil {
			return nil, err
		}
		s.journal = j
		if err := s.replay(recs); err != nil {
			j.Close()
			return nil, err
		}
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /lease", s.worker(s.handleLease))
	s.mux.HandleFunc("POST /submit", s.worker(s.handleSubmit))
	s.mux.HandleFunc("GET /trace/{fingerprint}", s.worker(s.handleTrace))
	s.mux.HandleFunc("GET /metrics", s.worker(s.handleMetrics))
	s.mux.HandleFunc("POST /campaigns", s.admin(s.handleSubmitCampaign))
	s.mux.HandleFunc("GET /campaigns", s.worker(s.handleListCampaigns))
	s.mux.HandleFunc("GET /campaigns/{id}", s.worker(s.handleCampaignStatus))
	s.mux.HandleFunc("GET /campaigns/{id}/report", s.worker(s.handleReport))
	s.mux.HandleFunc("DELETE /campaigns/{id}", s.admin(s.handleCancelCampaign))
	return s, nil
}

// replay rebuilds in-memory state from journal records. Shard records that
// no longer apply (unknown campaign, already-done shard, failed validation)
// are logged and skipped rather than double-counted — replay is idempotent.
// The replaying flag keeps the monotonic event counters (and completion
// logs) from re-counting events that happened in a previous process.
func (s *Server) replay(recs []JournalRecord) error {
	s.replaying = true
	defer func() { s.replaying = false }()
	for _, rec := range recs {
		switch rec.Kind {
		case recordCampaign:
			if rec.Spec == nil {
				return fmt.Errorf("coordctl: campaign record %s without a spec: %w", rec.Campaign, ErrJournalCorrupt)
			}
			if _, ok := s.campaigns[rec.Campaign]; ok {
				s.opts.Logger.Warn("journal: duplicate campaign record skipped", "campaign", rec.Campaign)
				continue
			}
			if _, err := s.registerCampaign(rec.Campaign, *rec.Spec, rec.Combos); err != nil {
				return fmt.Errorf("coordctl: replaying campaign %s: %w", rec.Campaign, err)
			}
			if n, err := strconv.Atoi(strings.TrimPrefix(rec.Campaign, "c")); err == nil && n > s.seq {
				s.seq = n
			}
		case recordShard:
			cs, ok := s.campaigns[rec.Campaign]
			if !ok || rec.Shard == nil {
				s.opts.Logger.Warn("journal: orphan shard record skipped", "campaign", rec.Campaign)
				continue
			}
			sh := *rec.Shard
			e := cs.table.byIndex(sh.Index)
			if e == nil || e.state == stateDone || !cs.running() {
				s.opts.Logger.Warn("journal: shard record of a done shard or an ended campaign skipped",
					"campaign", rec.Campaign, "shard", sh.Index)
				continue
			}
			if err := cs.merge(sh); err != nil {
				s.opts.Logger.Warn("journal: shard record no longer merges, skipped",
					"campaign", rec.Campaign, "shard", sh.Index, "err", err)
				continue
			}
			cs.table.markDone(sh.Index, sh.Worker, sh.Attempt, sh.ElapsedSeconds)
			s.checkTerminal(cs)
		case recordCancel:
			cs, ok := s.campaigns[rec.Campaign]
			if !ok {
				continue
			}
			s.cancelLocked(cs)
		}
	}
	for _, id := range s.order {
		cs := s.campaigns[id]
		s.opts.Logger.Info("journal: campaign restored",
			"campaign", id, "figure", cs.c.Figure, "state", cs.state,
			"shards_done", cs.table.count(stateDone), "shard_total", cs.c.ShardTotal)
	}
	return nil
}

// registerCampaign installs a campaign under id. Caller holds the lock (or
// is NewServer, before the server is shared). A positive combos is trusted
// as the campaign's combination-space size — the replay path, where the
// journaled value must win over whatever the trace directory looks like
// now; combos <= 0 resolves it from the live pool (the submission path).
func (s *Server) registerCampaign(id string, c Campaign, combos int) (*campaignState, error) {
	if c.PoolHash == "" || c.ConfigHash == "" {
		return nil, fmt.Errorf("coordctl: campaign fingerprints missing (build the campaign with NewCampaign)")
	}
	if c.ShardTotal < 1 {
		return nil, fmt.Errorf("coordctl: campaign needs at least 1 shard")
	}
	if combos <= 0 {
		var err error
		if combos, err = c.Combos(); err != nil {
			return nil, err
		}
	}
	if c.ShardTotal > combos {
		return nil, fmt.Errorf("coordctl: %d shards over %d combos leaves empty shards", c.ShardTotal, combos)
	}
	cs := &campaignState{
		id:     id,
		c:      c,
		combos: combos,
		table:  newLeaseTable(id, c.ShardTotal, s.opts.LeaseTimeout, s.opts.MaxAttempts),
		merger: experiments.NewShardMerger(),
		start:  s.opts.Clock(),
		state:  "running",
		done:   make(chan struct{}),
	}
	if c.TraceDir != "" && !s.corpusDir[c.TraceDir] {
		corpus, err := experiments.LoadCorpus(c.TraceDir)
		if err != nil {
			// The campaign can still run on a shared filesystem; only the
			// fetch endpoint for this directory is unavailable.
			s.opts.Logger.Warn("campaign trace dir unreadable; /trace will not serve it",
				"campaign", id, "dir", c.TraceDir, "err", err)
		} else {
			s.corpora = append(s.corpora, corpus)
			s.corpusDir[c.TraceDir] = true
		}
	}
	s.campaigns[id] = cs
	s.order = append(s.order, id)
	s.running = append(s.running, cs)
	return cs, nil
}

// SubmitCampaign accepts a campaign (built with NewCampaign), journals it,
// and starts serving its leases. It returns the assigned campaign id.
// Validation runs before the journal write: a campaign the server refuses
// never reaches the journal (an invalid journaled spec would make every
// later restart fail its replay), and a journal write that fails rolls the
// in-memory registration back so the daemon never serves leases it would
// forget on restart.
func (s *Server) SubmitCampaign(c Campaign) (string, error) {
	id, _, err := s.submitCampaign(c)
	return id, err
}

// submitCampaign is SubmitCampaign, also returning the size of the
// campaign's combination space as registration resolved it.
func (s *Server) submitCampaign(c Campaign) (id string, combos int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id = fmt.Sprintf("c%d", s.seq+1)
	preCorpora := len(s.corpora)
	cs, err := s.registerCampaign(id, c, 0)
	if err != nil {
		return "", 0, err
	}
	if s.journal != nil {
		if err := s.journal.Append(JournalRecord{Kind: recordCampaign, Campaign: id, Spec: &c, Combos: cs.combos}); err != nil {
			delete(s.campaigns, id)
			s.order = s.order[:len(s.order)-1]
			s.running = s.running[:len(s.running)-1]
			if len(s.corpora) > preCorpora {
				s.corpora = s.corpora[:preCorpora]
				delete(s.corpusDir, c.TraceDir)
			}
			return "", 0, err
		}
	}
	s.seq++
	s.ctr.CampaignsSubmitted++
	s.opts.Logger.Info("campaign accepted",
		"campaign", id, "figure", c.Figure, "shards", c.ShardTotal,
		"combos", cs.combos, "pool_hash", c.PoolHash)
	return id, cs.combos, nil
}

// CancelCampaign cancels a running campaign: its leases are released, its
// workers' submissions are discarded as superseded, and the cancellation is
// journaled so a restart does not resurrect it.
func (s *Server) CancelCampaign(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.campaigns[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoCampaign, id)
	}
	if !cs.running() {
		return fmt.Errorf("coordctl: campaign %s is already %s", id, cs.state)
	}
	if s.journal != nil {
		if err := s.journal.Append(JournalRecord{Kind: recordCancel, Campaign: id}); err != nil {
			return err
		}
	}
	s.cancelLocked(cs)
	return nil
}

// cancelLocked moves a campaign to its cancelled terminal state.
func (s *Server) cancelLocked(cs *campaignState) {
	if !cs.running() {
		return
	}
	released := cs.table.cancel()
	s.endLocked(cs, "cancelled", ErrCampaignCancelled)
	if s.replaying {
		return // a restored cancellation is not a new per-process event
	}
	s.ctr.CampaignsCancelled++
	s.opts.Logger.Info("campaign cancelled", "campaign", cs.id, "figure", cs.c.Figure,
		"leases_released", released, "combos_merged", cs.covered)
}

// endLocked moves a running campaign to a terminal state. It leaves the
// running list that every request walks, and its merge is reduced once and
// dropped: no shard reaches an ended campaign's merge again.
func (s *Server) endLocked(cs *campaignState, state string, failure error) {
	cs.state, cs.failure = state, failure
	s.running = slices.DeleteFunc(s.running, func(r *campaignState) bool { return r == cs })
	if cs.merger.Accepted() > 0 {
		p := cs.merger.Partial()
		cs.partial = &p
	}
	cs.merger = nil
	close(cs.done)
}

// merge folds an accepted shard into a running campaign's merge.
func (cs *campaignState) merge(sh experiments.Shard) error {
	if err := cs.merger.Add(sh); err != nil {
		return err
	}
	cs.covered = cs.merger.Covered()
	return nil
}

// Close releases the journal. In-flight handlers finish normally; every
// acknowledged event is already fsynced, so Close loses nothing.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// Handler returns the coordinator's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// JournalSize returns the write-ahead journal's byte size (0 without a
// state dir).
func (s *Server) JournalSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return 0
	}
	return s.journal.Size()
}

// Done returns the channel closed when campaign id reaches a terminal state
// (done, failed or cancelled), or nil for an unknown id.
func (s *Server) Done(id string) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.campaigns[id]
	if !ok {
		return nil
	}
	return cs.done
}

// Err returns a campaign's terminal error (nil while running or on success).
func (s *Server) Err(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.campaigns[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoCampaign, id)
	}
	return cs.failure
}

// Report returns a campaign's final merged report; it errors while shards
// are outstanding and after a failed or cancelled campaign.
func (s *Server) Report(id string) (experiments.ImprovementReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.campaigns[id]
	if !ok {
		return experiments.ImprovementReport{}, fmt.Errorf("%w: %s", ErrNoCampaign, id)
	}
	if cs.failure != nil {
		return experiments.ImprovementReport{}, cs.failure
	}
	if cs.merger == nil {
		return *cs.partial, nil // a done campaign's partial is its final report
	}
	return cs.merger.Report()
}

// Status returns one campaign's status document, as /campaigns/{id} serves.
func (s *Server) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.campaigns[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNoCampaign, id)
	}
	now := s.opts.Clock()
	s.sweepExpiryLocked(now)
	return s.statusLocked(cs, now), nil
}

// Campaigns lists every campaign in submission order, as /campaigns serves.
func (s *Server) Campaigns() []CampaignSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Clock()
	s.sweepExpiryLocked(now)
	out := make([]CampaignSummary, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.summaryLocked(s.campaigns[id], now))
	}
	return out
}

func (s *Server) summaryLocked(cs *campaignState, now time.Time) CampaignSummary {
	sum := CampaignSummary{
		ID:             cs.id,
		Figure:         cs.c.Figure,
		State:          cs.state,
		ShardTotal:     cs.c.ShardTotal,
		ShardsDone:     cs.table.count(stateDone),
		TotalCombos:    cs.combos,
		CombosCovered:  cs.covered,
		ElapsedSeconds: now.Sub(cs.start).Seconds(),
	}
	if cs.failure != nil {
		sum.Error = cs.failure.Error()
	}
	return sum
}

// --- auth ----------------------------------------------------------------

// worker wraps a handler with worker-plane auth; admin with admin-plane.
func (s *Server) worker(h http.HandlerFunc) http.HandlerFunc { return s.protect(false, h) }
func (s *Server) admin(h http.HandlerFunc) http.HandlerFunc  { return s.protect(true, h) }

func (s *Server) protect(admin bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.authorized(r, admin) {
			s.mu.Lock()
			s.ctr.AuthFailures++
			s.mu.Unlock()
			s.opts.Logger.Warn("request refused: bad or missing bearer token",
				"path", r.URL.Path, "remote", r.RemoteAddr, "admin", admin)
			w.Header().Set("WWW-Authenticate", `Bearer realm="coordinator"`)
			http.Error(w, "missing or invalid bearer token", http.StatusUnauthorized)
			return
		}
		h(w, r)
	}
}

// authorized checks the request's bearer token against the configured
// tokens. The admin token is accepted everywhere; the worker token only on
// the worker plane. With no tokens configured the server is open (trusted
// network, the pre-daemon behaviour). One-token deployments fall back
// symmetrically: a lone worker token guards the admin plane and a lone
// admin token guards the worker plane, so configuring either token never
// leaves the other plane's mutations (campaign submit/cancel on one side,
// lease and shard submit on the other) open.
func (s *Server) authorized(r *http.Request, admin bool) bool {
	workerTok, adminTok := s.opts.WorkerToken, s.opts.AdminToken
	var accepted []string
	if admin {
		switch {
		case adminTok != "":
			accepted = []string{adminTok}
		case workerTok != "":
			accepted = []string{workerTok}
		default:
			return true
		}
	} else {
		switch {
		case workerTok != "":
			accepted = []string{workerTok, adminTok}
		case adminTok != "":
			accepted = []string{adminTok}
		default:
			return true
		}
	}
	got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	ok := false
	for _, want := range accepted {
		// Evaluate every candidate: hashing both sides makes the compare
		// constant-time in both token length and match position.
		if want != "" && tokenEqual(got, want) {
			ok = true
		}
	}
	return ok
}

// tokenEqual is a constant-time token compare (over SHA-256 digests, so
// length differences leak nothing either).
func tokenEqual(a, b string) bool {
	ha, hb := sha256.Sum256([]byte(a)), sha256.Sum256([]byte(b))
	return subtle.ConstantTimeCompare(ha[:], hb[:]) == 1
}

// --- protocol handlers ---------------------------------------------------

// sweepExpiryLocked advances every running campaign's lease state machine
// to now. Called under the lock by every handler, so stragglers are
// detected as soon as any worker or status probe talks to us — no
// background timer needed. A table scans its entries only once its
// earliest lease deadline has passed, so a request with no lease due costs
// O(running campaigns), not O(shards).
func (s *Server) sweepExpiryLocked(now time.Time) {
	// Backwards: a campaign that fails here leaves s.running, which shifts
	// only the entries already swept.
	for k := len(s.running) - 1; k >= 0; k-- {
		cs := s.running[k]
		requeued, failed := cs.table.expire(now)
		s.ctr.Redispatches += int64(len(requeued))
		for _, i := range requeued {
			s.opts.Logger.Info("lease expired, shard re-dispatching",
				"campaign", cs.id, "shard", i, "worker", cs.table.entries[i].worker,
				"attempt", cs.table.entries[i].attempts, "max_attempts", s.opts.MaxAttempts)
		}
		for _, i := range failed {
			s.ctr.ShardsFailed++
			s.opts.Logger.Error("shard failed permanently",
				"campaign", cs.id, "shard", i, "err", cs.table.entries[i].lastErr)
		}
		s.checkTerminal(cs)
	}
}

// checkTerminal moves a campaign to done/failed when its table says so.
// Caller holds the lock.
func (s *Server) checkTerminal(cs *campaignState) {
	if !cs.running() {
		return
	}
	if e := cs.table.firstFailed(); e != nil {
		s.endLocked(cs, "failed", fmt.Errorf("coordctl: shard %d failed after %d attempts: %s", e.index, e.attempts, e.lastErr))
		if !s.replaying {
			s.ctr.CampaignsFailed++
			s.opts.Logger.Error("campaign failed", "campaign", cs.id, "figure", cs.c.Figure, "err", cs.failure)
		}
		return
	}
	if cs.table.allDone() && cs.merger.Complete() {
		s.endLocked(cs, "done", nil)
		if !s.replaying {
			s.ctr.CampaignsDone++
			s.opts.Logger.Info("campaign complete",
				"campaign", cs.id, "figure", cs.c.Figure, "combos", cs.combos,
				"elapsed", s.opts.Clock().Sub(cs.start).Seconds())
		}
	}
}

// idleLocked reports whether no campaign is currently running — the signal
// (SubmitResult.Done, lease 410) that tells a worker fleet to stand down.
func (s *Server) idleLocked() bool { return len(s.running) == 0 }

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker   string `json:"worker"`
		Campaign string `json:"campaign,omitempty"` // optional scope
	}
	if err := readJSON(r.Body, r.ContentLength, maxControlBody, &req); err != nil || req.Worker == "" {
		badBody(w, err, "lease request must be JSON with a worker name")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Clock()
	s.sweepExpiryLocked(now)

	scope := s.running
	if req.Campaign != "" {
		cs, ok := s.campaigns[req.Campaign]
		if !ok {
			http.Error(w, "no campaign "+req.Campaign, http.StatusNotFound)
			return
		}
		if !cs.running() {
			writeJSONStatus(w, http.StatusGone, SubmitResult{Done: true, Error: errString(cs.failure)})
			return
		}
		scope = []*campaignState{cs}
	} else if len(s.campaigns) > 0 && s.idleLocked() {
		// Every known campaign is over: tell the fleet to stand down. (With
		// no campaigns at all the daemon answers 204 — workers started
		// ahead of the first submission poll until work arrives.)
		writeJSONStatus(w, http.StatusGone, SubmitResult{Done: true})
		return
	}
	for _, cs := range scope {
		e := cs.table.lease(req.Worker, now)
		if e == nil {
			continue
		}
		s.ctr.LeasesGranted++
		s.opts.Logger.Info("shard leased",
			"campaign", cs.id, "shard", e.index, "shard_total", cs.c.ShardTotal,
			"worker", req.Worker, "lease", e.leaseID, "attempt", e.attempts)
		writeJSON(w, WorkUnit{
			Campaign:   cs.c,
			CampaignID: cs.id,
			ShardIndex: e.index,
			LeaseID:    e.leaseID,
			Attempt:    e.attempts,
		})
		return
	}
	// Everything pending is leased or done; the worker should back off and
	// ask again — it may inherit an expired lease.
	s.ctr.EmptyPolls++
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	leaseID := q.Get("lease")
	var sh experiments.Shard
	if err := readJSON(r.Body, r.ContentLength, maxShardBody, &sh); err != nil {
		badBody(w, err, "submit body must be a shard JSON document")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Clock()
	s.sweepExpiryLocked(now)

	cs := s.campaigns[q.Get("campaign")]
	if cs == nil {
		writeJSONStatus(w, http.StatusUnprocessableEntity, SubmitResult{
			Error: "submission names no campaign this coordinator serves (send ?campaign=<id>)"})
		return
	}
	if !cs.running() && cs.state != "done" {
		// Cancelled or failed: the worker's result is moot but not wrong —
		// same contract as a superseded duplicate, so fleets drain cleanly.
		s.ctr.SubmitsSuperseded++
		writeJSON(w, SubmitResult{Superseded: true, Done: s.idleLocked(),
			Error: fmt.Sprintf("campaign %s is %s", cs.id, cs.state)})
		return
	}
	e := cs.table.byIndex(sh.Index)
	if e == nil || sh.Total != cs.c.ShardTotal {
		s.ctr.SubmitsRejected++
		writeJSONStatus(w, http.StatusUnprocessableEntity, SubmitResult{
			Error: fmt.Sprintf("shard %d/%d does not belong to campaign %s (%d shards)", sh.Index, sh.Total, cs.id, cs.c.ShardTotal)})
		return
	}
	if e.state == stateDone {
		// First valid result won; a straggler's duplicate is discarded.
		s.ctr.SubmitsSuperseded++
		s.opts.Logger.Info("duplicate shard discarded",
			"campaign", cs.id, "shard", sh.Index, "worker", sh.Worker, "lease", leaseID)
		writeJSON(w, SubmitResult{Superseded: true, Done: s.idleLocked()})
		return
	}
	if err := s.validate(cs, sh); err != nil {
		s.ctr.SubmitsRejected++
		s.opts.Logger.Warn("shard rejected",
			"campaign", cs.id, "shard", sh.Index, "worker", sh.Worker, "err", err)
		cs.table.reject(e, err.Error())
		s.checkTerminal(cs)
		writeJSONStatus(w, http.StatusUnprocessableEntity, SubmitResult{Error: err.Error()})
		return
	}
	// Stamp lease provenance into the shard header before journaling and
	// folding, so the durable record says who ran what on which attempt.
	if sh.Worker == "" {
		sh.Worker = e.worker
	}
	if sh.Attempt == 0 {
		sh.Attempt = e.attempts
	}
	if s.journal != nil {
		if err := s.journal.Append(JournalRecord{Kind: recordShard, Campaign: cs.id, Shard: &sh}); err != nil {
			// Durability failed: do NOT acknowledge. The worker retries the
			// submit; the shard stays leased to it meanwhile.
			s.opts.Logger.Error("journal append failed; submission not acknowledged",
				"campaign", cs.id, "shard", sh.Index, "err", err)
			writeJSONStatus(w, http.StatusInternalServerError, SubmitResult{Error: "journal write failed, retry"})
			return
		}
	}
	if err := cs.merge(sh); err != nil {
		s.ctr.SubmitsRejected++
		s.opts.Logger.Warn("shard failed streaming merge",
			"campaign", cs.id, "shard", sh.Index, "err", err)
		cs.table.reject(e, err.Error())
		s.checkTerminal(cs)
		writeJSONStatus(w, http.StatusUnprocessableEntity, SubmitResult{Error: err.Error()})
		return
	}
	cs.table.accept(e, sh.Worker, sh.ElapsedSeconds)
	s.ctr.SubmitsAccepted++
	s.checkTerminal(cs)
	s.opts.Logger.Info("shard accepted and merged",
		"campaign", cs.id, "shard", sh.Index, "worker", sh.Worker, "attempt", sh.Attempt,
		"elapsed", sh.ElapsedSeconds, "lease", leaseID,
		"combos_merged", cs.covered, "combos_total", cs.combos)
	writeJSON(w, SubmitResult{Accepted: true, CampaignDone: !cs.running(), Done: s.idleLocked()})
}

// validate checks a submission against its campaign before it is
// journaled and reaches the merger: fingerprints first (a misconfigured
// worker must be rejected even on the very first submission, when the
// merger has no reference shard), then the exact range geometry the lease
// implied, then the outcomes the merger's report reduction will fold.
func (s *Server) validate(cs *campaignState, sh experiments.Shard) error {
	if sh.Format != experiments.ShardFormat {
		return fmt.Errorf("shard format %d, want %d: %w", sh.Format, experiments.ShardFormat, experiments.ErrShardFormat)
	}
	if sh.PoolHash != cs.c.PoolHash {
		return fmt.Errorf("pool hash %s, campaign %s: %w", sh.PoolHash, cs.c.PoolHash, experiments.ErrShardCampaign)
	}
	if sh.ConfigHash != cs.c.ConfigHash {
		return fmt.Errorf("config hash %s, campaign %s: %w", sh.ConfigHash, cs.c.ConfigHash, experiments.ErrShardCampaign)
	}
	if sh.TotalCombos != cs.combos {
		return fmt.Errorf("%d total combos, campaign has %d: %w", sh.TotalCombos, cs.combos, experiments.ErrShardCampaign)
	}
	lo, hi := experiments.ShardRange(cs.combos, sh.Index, cs.c.ShardTotal)
	if sh.ComboLo != lo || sh.ComboHi != hi {
		return fmt.Errorf("shard %d range [%d,%d), lease implies [%d,%d): %w",
			sh.Index, sh.ComboLo, sh.ComboHi, lo, hi, experiments.ErrShardTiling)
	}
	return cs.merger.CheckOutcomes(sh)
}

func (s *Server) statusLocked(cs *campaignState, now time.Time) Status {
	out := Status{
		ID:             cs.id,
		Figure:         cs.c.Figure,
		State:          cs.state,
		ElapsedSeconds: now.Sub(cs.start).Seconds(),
		TotalCombos:    cs.combos,
		CombosCovered:  cs.covered,
		Shards:         make([]ShardStatus, len(cs.table.entries)),
	}
	if cs.failure != nil {
		out.Error = cs.failure.Error()
	}
	for i := range cs.table.entries {
		e := &cs.table.entries[i]
		ss := ShardStatus{
			Index:    e.index,
			State:    e.state.String(),
			Worker:   e.worker,
			Attempts: e.attempts,
			Error:    e.lastErr,
		}
		switch e.state {
		case stateDone:
			ss.ElapsedSeconds = e.elapsed
		case stateLeased:
			ss.ElapsedSeconds = now.Sub(e.leasedAt).Seconds()
		}
		out.Shards[i] = ss
	}
	switch {
	case cs.merger == nil:
		out.Partial = cs.partial
	case cs.merger.Accepted() > 0:
		partial := cs.merger.Partial()
		out.Partial = &partial
	}
	return out
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	report, err := s.Report(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNoCampaign):
		http.Error(w, err.Error(), http.StatusNotFound)
	case err != nil:
		writeJSONStatus(w, http.StatusConflict, SubmitResult{Error: err.Error()})
	default:
		writeJSON(w, report)
	}
}

// handleTrace serves one corpus trace by content fingerprint, searching every
// campaign's corpus — the address is the content, so a fingerprint means the
// same bytes no matter which campaign advertised it. http.ServeContent gives
// workers byte-range requests for free, which is what makes interrupted
// multi-GB fetches resumable instead of restartable.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	s.mu.Lock()
	s.ctr.TraceRequests++
	var path, name string
	for _, corpus := range s.corpora {
		if ref, ok := corpus.Lookup(fp); ok {
			path, name = corpus.Path(ref), ref.File
			break
		}
	}
	s.mu.Unlock()
	if path == "" {
		http.Error(w, "no trace with fingerprint "+fp, http.StatusNotFound)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		s.opts.Logger.Error("corpus trace vanished", "file", name, "err", err)
		http.Error(w, "corpus trace unavailable", http.StatusInternalServerError)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	// The content address IS the version: a fingerprint never serves
	// different bytes, so the modtime only needs to be stable, not real.
	http.ServeContent(w, r, name, time.Unix(0, 0), f)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Clock()
	s.sweepExpiryLocked(now)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w, now)
}

// --- campaign API handlers -----------------------------------------------

func (s *Server) handleSubmitCampaign(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if err := readJSON(r.Body, r.ContentLength, maxControlBody, &req); err != nil {
		badBody(w, err, "campaign request must be JSON: "+err.Error())
		return
	}
	c, err := NewCampaign(req.Figure, req.Quick, req.Seed, req.Pool, req.TraceDir, req.Shards)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	id, combos, err := s.submitCampaign(c)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSONStatus(w, http.StatusCreated, CampaignCreated{ID: id, Campaign: c, Combos: combos})
}

func (s *Server) handleListCampaigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Campaigns())
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Clock()
	s.sweepExpiryLocked(now)
	id := r.PathValue("id")
	cs, ok := s.campaigns[id]
	if !ok {
		http.Error(w, fmt.Sprintf("%v: %s", ErrNoCampaign, id), http.StatusNotFound)
		return
	}
	writeJSON(w, s.statusLocked(cs, now))
}

func (s *Server) handleCancelCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.CancelCampaign(id); err != nil {
		code := http.StatusConflict
		if errors.Is(err, ErrNoCampaign) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, map[string]string{"id": id, "state": "cancelled"})
}

// badBody answers a request whose body readJSON refused: 413 for an
// oversized body, 400 with msg for anything else.
func badBody(w http.ResponseWriter, err error, msg string) {
	if errors.Is(err, errBodyTooLarge) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, msg, http.StatusBadRequest)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
