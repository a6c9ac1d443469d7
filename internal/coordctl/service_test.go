package coordctl

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"encoding/pem"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"symbiosched/internal/experiments"
)

// TestServiceRestartResume is the service gate for restarts: a daemon
// killed mid-campaign and restarted over its state dir resumes the campaign
// under the same id — the accepted shard is never re-leased or recomputed —
// and the report a client fetches by that id is byte-identical to the
// single-process Sweep.
func TestServiceRestartResume(t *testing.T) {
	dir := t.TempDir()
	campaign := quickCampaign(t, 3)

	// Phase 1: a daemon accepts one real shard, then dies.
	srv1, err := NewServer(ServerOptions{StateDir: dir, LeaseTimeout: time.Minute, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	id, err := srv1.SubmitCampaign(campaign)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1.Handler())
	cl := Client{BaseURL: hs1.URL, Worker: "phase1"}
	ctx := context.Background()
	wu, err := cl.Lease(ctx)
	if err != nil || wu == nil {
		t.Fatalf("phase-1 lease: %v %v", wu, err)
	}
	cfg := wu.Campaign.Config()
	cfg.ShardIndex, cfg.ShardTotal = wu.ShardIndex, wu.Campaign.ShardTotal
	spec, err := wu.Campaign.Spec()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := cfg.RunShard(spec)
	if err != nil {
		t.Fatal(err)
	}
	sh.Worker, sh.Attempt = cl.Worker, wu.Attempt
	if res, err := cl.Submit(ctx, wu, sh); err != nil || !res.Accepted {
		t.Fatalf("phase-1 submit: res=%+v err=%v", res, err)
	}
	doneIdx := wu.ShardIndex
	// A second lease is outstanding when the daemon dies — the crash must
	// not resurrect it as accepted state.
	if wu2, err := cl.Lease(ctx); err != nil || wu2 == nil {
		t.Fatalf("phase-1 second lease: %v %v", wu2, err)
	}
	hs1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a restarted daemon over the same state dir serves the
	// campaign under its id, with the accepted shard done.
	srv2, err := NewServer(ServerOptions{StateDir: dir, LeaseTimeout: time.Minute, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	watcher := Client{BaseURL: hs2.URL, Worker: "watcher"}
	list, err := watcher.Campaigns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != id || list[0].State != "running" || list[0].ShardsDone != 1 {
		t.Fatalf("restarted daemon lists %+v, want %s running with 1 shard done", list, id)
	}
	st, err := watcher.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Shards[doneIdx]; got.State != "done" || got.Worker != "phase1" {
		t.Fatalf("replayed shard %d: %+v, want done by phase1", doneIdx, got)
	}

	// Real workers drain the remaining shards against the resumed daemon.
	w := &Worker{
		Client:  Client{BaseURL: hs2.URL, Worker: "phase2"},
		Workers: 1,
		Backoff: Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Logf:    t.Logf,
	}
	loopCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := w.Loop(loopCtx); err != nil {
		t.Fatal(err)
	}
	if st, err := watcher.Status(ctx, id); err != nil || st.State != "done" {
		t.Fatalf("campaign after resume: %+v %v, want done", st, err)
	}

	// No accepted shard recomputed: the resumed daemon granted exactly the
	// two outstanding shards, and the journal holds each shard once.
	if ctr := srv2.CountersSnapshot(); ctr.LeasesGranted != 2 {
		t.Fatalf("resumed daemon granted %d leases, want 2 (accepted shard must not be re-leased)", ctr.LeasesGranted)
	}
	recs, err := ReadJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	perShard := map[int]int{}
	for _, rec := range recs {
		if rec.Kind == recordShard {
			perShard[rec.Shard.Index]++
		}
	}
	if len(perShard) != campaign.ShardTotal {
		t.Fatalf("journal holds shards %v, want all %d", perShard, campaign.ShardTotal)
	}
	for idx, n := range perShard {
		if n != 1 {
			t.Fatalf("journal holds %d records for shard %d", n, idx)
		}
	}

	// Byte-identical to the uninterrupted single-process sweep.
	merged, err := watcher.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	direct := campaign.Config().Sweep(spec.Pool, spec.Policy, spec.MixSize, spec.Virt)
	da, _ := json.Marshal(direct)
	db, _ := json.Marshal(merged)
	if string(da) != string(db) {
		t.Fatalf("resumed report differs from sequential sweep:\ndirect: %s\nmerged: %s", da, db)
	}
}

// TestCoordinatorAuth pins the token contract: no token → 401 everywhere
// protected; worker token → worker plane only; admin token → everything.
// The worker loop treats 401 as fatal rather than a transport failure.
func TestCoordinatorAuth(t *testing.T) {
	campaign := quickCampaign(t, 2)
	srv, err := NewServer(ServerOptions{
		WorkerToken: "worker-secret",
		AdminToken:  "admin-secret",
		Logger:      testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitCampaign(campaign); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx := context.Background()

	anon := Client{BaseURL: hs.URL, Worker: "anon"}
	if _, err := anon.Lease(ctx); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("anonymous lease err=%v, want ErrUnauthorized", err)
	}
	wrong := Client{BaseURL: hs.URL, Worker: "wrong", Token: "worker-secret-but-longer"}
	if _, err := wrong.Lease(ctx); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong-token lease err=%v, want ErrUnauthorized", err)
	}

	worker := Client{BaseURL: hs.URL, Worker: "w", Token: "worker-secret"}
	wu, err := worker.Lease(ctx)
	if err != nil || wu == nil {
		t.Fatalf("worker-token lease: %v %v", wu, err)
	}
	// The worker token does not open the admin plane.
	if _, err := worker.SubmitCampaign(ctx, CampaignRequest{Figure: "fig10", Quick: true, Shards: 1}); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("worker token submitted a campaign: err=%v", err)
	}
	if err := worker.CancelCampaign(ctx, "c1"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("worker token cancelled a campaign: err=%v", err)
	}

	// The admin token works on both planes.
	admin := Client{BaseURL: hs.URL, Worker: "a", Token: "admin-secret"}
	if _, err := admin.Campaigns(ctx); err != nil {
		t.Fatalf("admin token refused on worker plane: %v", err)
	}
	if err := admin.CancelCampaign(ctx, "c1"); err != nil {
		t.Fatalf("admin cancel: %v", err)
	}

	// A worker loop with a bad token dies fast (fatal), not after burning
	// the whole transport-failure budget.
	bad := &Worker{
		Client:      Client{BaseURL: hs.URL, Worker: "intruder", Token: "nope"},
		Backoff:     Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		MaxFailures: 1000,
		Logf:        t.Logf,
	}
	if err := bad.Loop(ctx); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("bad-token worker loop err=%v, want ErrUnauthorized", err)
	}

	if ctr := srv.CountersSnapshot(); ctr.AuthFailures < 4 {
		t.Fatalf("auth failures counter %d, want >= 4", ctr.AuthFailures)
	}
}

// TestAdminTokenOnlyGuardsWorkerPlane pins the symmetric one-token
// fallback: a daemon configured with only an admin token must not leave the
// state-mutating worker plane (lease, shard submit) open to anonymous
// callers — the admin token is required there too.
func TestAdminTokenOnlyGuardsWorkerPlane(t *testing.T) {
	campaign := quickCampaign(t, 1)
	srv, err := NewServer(ServerOptions{AdminToken: "admin-secret", Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitCampaign(campaign); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx := context.Background()

	anon := Client{BaseURL: hs.URL, Worker: "anon"}
	if _, err := anon.Lease(ctx); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("anonymous lease on an admin-token-only daemon: err=%v, want ErrUnauthorized", err)
	}
	if _, err := anon.Submit(ctx, &WorkUnit{CampaignID: "c1"}, stubShard(t, campaign, 0)); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("anonymous submit on an admin-token-only daemon: err=%v, want ErrUnauthorized", err)
	}
	admin := Client{BaseURL: hs.URL, Worker: "a", Token: "admin-secret"}
	if wu, err := admin.Lease(ctx); err != nil || wu == nil {
		t.Fatalf("admin token refused on worker plane: %v %v", wu, err)
	}
}

// TestRejectedCampaignNotJournaled pins the validate-before-journal order:
// a submission the server refuses (here: more shards than combos) must not
// reach the journal — a journaled invalid spec would make every later
// restart fail its replay — and must not burn the campaign id sequence.
func TestRejectedCampaignNotJournaled(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(ServerOptions{StateDir: dir, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	// fig10 quick over 5 benchmarks has C(5,4) = 5 combos; a million shards
	// cannot tile it.
	if _, err := srv.SubmitCampaign(quickCampaign(t, 1_000_000)); err == nil {
		t.Fatal("oversharded campaign accepted")
	}
	id, err := srv.SubmitCampaign(quickCampaign(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if id != "c1" {
		t.Fatalf("valid campaign got id %s, want c1 (a rejection must not burn the sequence)", id)
	}
	srv.Close()

	srv2, err := NewServer(ServerOptions{StateDir: dir, Logger: testLogger(t)})
	if err != nil {
		t.Fatalf("restart after a rejected submission: %v", err)
	}
	defer srv2.Close()
	if got := srv2.Campaigns(); len(got) != 1 || got[0].ID != id || got[0].State != "running" {
		t.Fatalf("restarted campaigns %+v, want just %s running", got, id)
	}
}

// TestMalformedShardRefusedBeforeJournal: a shard whose outcome names a
// benchmark outside the campaign's pool is refused with 422 before it is
// journaled, so the campaign's status and report keep answering, and a
// valid resubmission of the same shard is then accepted.
func TestMalformedShardRefusedBeforeJournal(t *testing.T) {
	dir := t.TempDir()
	campaign := quickCampaign(t, 2)
	srv, err := NewServer(ServerOptions{StateDir: dir, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	id, err := srv.SubmitCampaign(campaign)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := Client{BaseURL: hs.URL, Worker: "w"}
	ctx := context.Background()
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	wu, err := cl.Lease(ctx)
	if err != nil || wu == nil {
		t.Fatalf("lease: %+v %v", wu, err)
	}
	bad := stubShard(t, campaign, wu.ShardIndex)
	bad.Outcomes[0].Names = []string{"not-in-pool"}
	if _, err := cl.Submit(ctx, wu, bad); !errors.Is(err, ErrRejected) {
		t.Fatalf("malformed shard: %v, want ErrRejected", err)
	}
	recs, err := ReadJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Kind == recordShard {
			t.Fatalf("refused shard was journaled: %+v", rec)
		}
	}
	if code := get("/campaigns/" + id); code != http.StatusOK {
		t.Fatalf("status after the refusal: %d", code)
	}

	refused := wu.ShardIndex
	for i := range campaign.ShardTotal {
		wu, err := cl.Lease(ctx)
		if err != nil || wu == nil {
			t.Fatalf("lease: %+v %v", wu, err)
		}
		if i == 0 && wu.ShardIndex != refused {
			t.Fatalf("leased shard %d first, want the refused shard %d back", wu.ShardIndex, refused)
		}
		if res, err := cl.Submit(ctx, wu, stubShard(t, campaign, wu.ShardIndex)); err != nil || !res.Accepted {
			t.Fatalf("valid shard %d: %+v %v", wu.ShardIndex, res, err)
		}
	}
	for _, path := range []string{"/campaigns/" + id, "/campaigns/" + id + "/report"} {
		if code := get(path); code != http.StatusOK {
			t.Fatalf("%s after the campaign completed: %d", path, code)
		}
	}
}

// TestRequestsNameTheirCampaign: even a daemon serving a single campaign
// answers only requests that name it — there is no GET /status or
// GET /report, and a shard submitted under a valid lease but without
// ?campaign= is refused with 422 and merges nothing.
func TestRequestsNameTheirCampaign(t *testing.T) {
	campaign := quickCampaign(t, 2)
	srv, hs, id := newTestServer(t, campaign, time.Minute, 3)
	for _, path := range []string{"/status", "/report", "/status?campaign=" + id, "/report?campaign=" + id} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
	ctx := context.Background()
	cl := Client{BaseURL: hs.URL, Worker: "anonymous-submit"}
	wu, err := cl.Lease(ctx)
	if err != nil || wu == nil {
		t.Fatalf("lease: %+v %v", wu, err)
	}
	unnamed := *wu
	unnamed.CampaignID = ""
	if _, err := cl.Submit(ctx, &unnamed, stubShard(t, campaign, wu.ShardIndex)); !errors.Is(err, ErrRejected) {
		t.Fatalf("submit naming no campaign: %v, want ErrRejected", err)
	}
	if st := mustStatus(t, srv, id); st.CombosCovered != 0 {
		t.Fatalf("a submission naming no campaign was merged: %+v", st)
	}
	if res, err := cl.Submit(ctx, wu, stubShard(t, campaign, wu.ShardIndex)); err != nil || !res.Accepted {
		t.Fatalf("submit naming its campaign: %+v %v", res, err)
	}
}

// TestReplaySurvivesMissingTraceDir pins the journaled-combos contract: a
// trace campaign must resume from its journal even when the trace directory
// is gone at restart — the journal, not the live filesystem, sizes the
// combination space (only /trace serving degrades, which registerCampaign
// already tolerates).
func TestReplaySurvivesMissingTraceDir(t *testing.T) {
	traceDir := filepath.Join(t.TempDir(), "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeCorpusDir(t, traceDir)
	campaign, err := NewCampaign("fig10", true, 0, nil, traceDir, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	srv, err := NewServer(ServerOptions{StateDir: dir, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	id, err := srv.SubmitCampaign(campaign)
	if err != nil {
		t.Fatal(err)
	}
	combos := mustStatus(t, srv, id).TotalCombos
	srv.Close()

	if err := os.RemoveAll(traceDir); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(ServerOptions{StateDir: dir, Logger: testLogger(t)})
	if err != nil {
		t.Fatalf("restart without the trace dir: %v", err)
	}
	defer srv2.Close()
	st := mustStatus(t, srv2, id)
	if st.State != "running" || st.TotalCombos != combos {
		t.Fatalf("resumed trace campaign state=%s combos=%d, want running with %d combos", st.State, st.TotalCombos, combos)
	}
}

// TestReplayDoesNotInflateCounters: the /metrics counters are per-process
// event counts, so replaying a journal of past completions and
// cancellations must leave them at zero while still restoring the terminal
// campaign states.
func TestReplayDoesNotInflateCounters(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(ServerOptions{StateDir: dir, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	finished := quickCampaign(t, 1)
	idDone, err := srv.SubmitCampaign(finished)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	ctx := context.Background()
	cl := Client{BaseURL: hs.URL, Worker: "once"}
	wu, err := cl.Lease(ctx)
	if err != nil || wu == nil {
		t.Fatalf("lease: %v %v", wu, err)
	}
	if res, err := cl.Submit(ctx, wu, stubShard(t, finished, wu.ShardIndex)); err != nil || !res.Accepted {
		t.Fatalf("submit: res=%+v err=%v", res, err)
	}
	idGone, err := srv.SubmitCampaign(quickCampaign(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CancelCampaign(idGone); err != nil {
		t.Fatal(err)
	}
	hs.Close()
	if ctr := srv.CountersSnapshot(); ctr.CampaignsDone != 1 || ctr.CampaignsCancelled != 1 {
		t.Fatalf("first-process counters %+v, want 1 done and 1 cancelled", ctr)
	}
	srv.Close()

	srv2, err := NewServer(ServerOptions{StateDir: dir, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if ctr := srv2.CountersSnapshot(); ctr.CampaignsDone != 0 || ctr.CampaignsCancelled != 0 || ctr.CampaignsFailed != 0 || ctr.SubmitsAccepted != 0 {
		t.Fatalf("replay inflated counters: %+v, want all zero after restart", ctr)
	}
	if st := mustStatus(t, srv2, idDone); st.State != "done" {
		t.Fatalf("restored campaign %s state %q, want done", idDone, st.State)
	}
	if st := mustStatus(t, srv2, idGone); st.State != "cancelled" {
		t.Fatalf("restored campaign %s state %q, want cancelled", idGone, st.State)
	}
}

// TestCoordinatorTLS covers the encrypted deployment: a worker trusting the
// daemon's (self-signed) certificate via TLSConfigFromCA talks normally; a
// worker without the CA refuses the connection.
func TestCoordinatorTLS(t *testing.T) {
	campaign := quickCampaign(t, 1)
	srv, err := NewServer(ServerOptions{WorkerToken: "s", Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitCampaign(campaign); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewTLSServer(srv.Handler())
	defer hs.Close()

	caPath := filepath.Join(t.TempDir(), "ca.pem")
	caPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: hs.Certificate().Raw})
	if err := os.WriteFile(caPath, caPEM, 0o644); err != nil {
		t.Fatal(err)
	}
	tlsCfg, err := TLSConfigFromCA(caPath)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	trusting := Client{BaseURL: hs.URL, Worker: "secure", Token: "s", TLS: tlsCfg}
	wu, err := trusting.Lease(ctx)
	if err != nil || wu == nil {
		t.Fatalf("TLS lease: %v %v", wu, err)
	}
	if res, err := trusting.Submit(ctx, wu, stubShard(t, campaign, wu.ShardIndex)); err != nil || !res.Accepted {
		t.Fatalf("TLS submit: res=%+v err=%v", res, err)
	}

	doubting := Client{BaseURL: hs.URL, Worker: "doubter", Token: "s", TLS: &tls.Config{}}
	if _, err := doubting.Lease(ctx); err == nil {
		t.Fatal("client without the CA connected to a self-signed daemon")
	}
}

// TestCampaignAPI drives the REST lifecycle end to end: submit over HTTP,
// list, per-campaign status, cancel — with two tenants sharing the daemon
// and the worker fleet flowing to the surviving campaign.
func TestCampaignAPI(t *testing.T) {
	srv, err := NewServer(ServerOptions{LeaseTimeout: time.Minute, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx := context.Background()
	cl := Client{BaseURL: hs.URL, Worker: "api"}

	// An idle daemon tells pollers to retry (204), not to quit (410): the
	// fleet may be started before the first campaign is submitted.
	if wu, err := cl.Lease(ctx); err != nil || wu != nil {
		t.Fatalf("lease against empty daemon: %v %v, want nil/nil", wu, err)
	}

	pool := []string{"povray", "gobmk", "hmmer", "libquantum", "sjeng"}
	c1, err := cl.SubmitCampaign(ctx, CampaignRequest{Figure: "fig10", Quick: true, Pool: pool, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cl.SubmitCampaign(ctx, CampaignRequest{Figure: "fig11", Quick: true, Pool: pool, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c1.ID == c2.ID {
		t.Fatalf("both campaigns got id %s", c1.ID)
	}
	list, err := cl.Campaigns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != c1.ID || list[1].ID != c2.ID {
		t.Fatalf("campaign list %+v, want [%s %s]", list, c1.ID, c2.ID)
	}
	st, err := cl.Status(ctx, c2.ID)
	if err != nil || st.ID != c2.ID || st.Figure != "fig11" {
		t.Fatalf("status of %s: %+v err=%v", c2.ID, st, err)
	}

	// A bogus submission names no campaign on a multi-tenant daemon: 422.
	if _, err := cl.SubmitCampaign(ctx, CampaignRequest{Figure: "nope", Shards: 1}); err == nil {
		t.Fatal("bogus figure accepted")
	}

	// Leases drain campaigns in submission order; cancelling the first
	// moves the fleet to the second.
	wu, err := cl.Lease(ctx)
	if err != nil || wu == nil || wu.CampaignID != c1.ID {
		t.Fatalf("first lease %+v err=%v, want campaign %s", wu, err, c1.ID)
	}
	if err := cl.CancelCampaign(ctx, c1.ID); err != nil {
		t.Fatal(err)
	}
	// The in-flight result of the cancelled campaign drains as superseded.
	res, err := cl.Submit(ctx, wu, stubShard(t, mustCampaign(t, c1.Campaign), wu.ShardIndex))
	if err != nil || !res.Superseded || res.Done {
		t.Fatalf("submit to cancelled campaign: res=%+v err=%v, want superseded and not done", res, err)
	}
	wu2, err := cl.Lease(ctx)
	if err != nil || wu2 == nil || wu2.CampaignID != c2.ID {
		t.Fatalf("post-cancel lease %+v err=%v, want campaign %s", wu2, err, c2.ID)
	}
	res2, err := cl.Submit(ctx, wu2, stubShard(t, wu2.Campaign, wu2.ShardIndex))
	if err != nil || !res2.Accepted || !res2.CampaignDone || !res2.Done {
		t.Fatalf("final submit: res=%+v err=%v, want accepted + campaign done + service idle", res2, err)
	}
	// Everything terminal: the fleet is told to stand down.
	if _, err := cl.Lease(ctx); !errors.Is(err, ErrCampaignDone) {
		t.Fatalf("lease with all campaigns terminal: %v, want ErrCampaignDone", err)
	}
	list, err = cl.Campaigns(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if list[0].State != "cancelled" || list[1].State != "done" {
		t.Fatalf("terminal states %s/%s, want cancelled/done", list[0].State, list[1].State)
	}
}

// mustCampaign round-trips the created campaign (the API echoes the resolved
// spec, fingerprints included) so tests can fabricate valid shards for it.
func mustCampaign(t *testing.T, c Campaign) Campaign {
	t.Helper()
	if c.PoolHash == "" || c.ConfigHash == "" {
		t.Fatalf("API returned a campaign without fingerprints: %+v", c)
	}
	return c
}

// TestCancelPersistsAcrossRestart: a cancellation is journaled, so the
// restarted daemon does not resurrect the campaign's leases.
func TestCancelPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	campaign := quickCampaign(t, 2)
	srv, err := NewServer(ServerOptions{StateDir: dir, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	id, err := srv.SubmitCampaign(campaign)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.CancelCampaign(id); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	srv2, err := NewServer(ServerOptions{StateDir: dir, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	st, err := srv2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" {
		t.Fatalf("restarted campaign state %q, want cancelled", st.State)
	}
}

// TestWorkerFailureBudgetResetsOnContact pins the flaky-network fix: the
// give-up counter counts CONSECUTIVE failures, so a network dropping every
// other request — far more total failures than the budget — must never kill
// the worker, while a genuinely dead coordinator still does.
func TestWorkerFailureBudgetResetsOnContact(t *testing.T) {
	srv, err := NewServer(ServerOptions{Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 1 {
			http.Error(w, "injected fault", http.StatusInternalServerError)
			return
		}
		srv.Handler().ServeHTTP(w, r) // no campaigns → 204, a successful poll
	}))
	defer flaky.Close()

	w := &Worker{
		Client:      Client{BaseURL: flaky.URL, Worker: "flaky"},
		Backoff:     Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		MaxFailures: 3,
		Logf:        t.Logf,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	err = w.Loop(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("flaky-network loop err=%v after %d calls, want to outlive the budget until ctx expiry", err, calls.Load())
	}
	if n := calls.Load(); n < 12 {
		t.Fatalf("only %d calls in the flaky window; the loop died early", n)
	}
}

// TestCoordinatorLoadSmoke is the load gate: 50 concurrent fake workers
// drain one journaled, token-guarded daemon over real HTTP with fabricated
// shards, and three views of the run must reconcile — the shards the
// clients saw accepted (each exactly once), the server's counters, and the
// journal's records.
func TestCoordinatorLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke skipped in -short")
	}
	const workers, shards = 50, 64
	dir := t.TempDir()
	// C(8,4) = 70 combos over 64 shards: nearly every lease carries work.
	pool := []string{"mcf", "omnetpp", "soplex", "gcc", "perlbench", "bzip2", "libquantum", "hmmer"}
	campaign, err := NewCampaign("fig10", true, 0, pool, "", shards)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerOptions{StateDir: dir, LeaseTimeout: time.Minute, MaxAttempts: 3,
		WorkerToken: "smoke", AdminToken: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	id, err := srv.SubmitCampaign(campaign)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	fabricated := make([]experiments.Shard, shards)
	for i := range fabricated {
		fabricated[i] = stubShard(t, campaign, i)
	}

	accepted := make([][]int, workers) // shard indices each client saw accepted
	errs := make([]error, workers)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for wi := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := Client{BaseURL: hs.URL, Worker: fmt.Sprintf("smoke-%d", wi), Token: "smoke"}
			for ctx.Err() == nil {
				wu, err := cl.Lease(ctx)
				if errors.Is(err, ErrCampaignDone) {
					return
				}
				if err != nil {
					errs[wi] = err
					return
				}
				if wu == nil {
					time.Sleep(time.Millisecond) // everything is leased out
					continue
				}
				res, err := cl.Submit(ctx, wu, fabricated[wu.ShardIndex])
				if err != nil {
					errs[wi] = err
					return
				}
				if res.Accepted {
					accepted[wi] = append(accepted[wi], wu.ShardIndex)
				}
				if res.Done {
					return
				}
			}
		}()
	}
	wg.Wait()

	acceptedBy := map[int]int{}
	for wi := range workers {
		if errs[wi] != nil {
			t.Fatalf("load worker %d: %v", wi, errs[wi])
		}
		for _, idx := range accepted[wi] {
			acceptedBy[idx]++
		}
	}
	for idx, n := range acceptedBy {
		if n != 1 {
			t.Fatalf("shard %d was accepted %d times — lease double-resolved", idx, n)
		}
	}
	if len(acceptedBy) != shards {
		t.Fatalf("%d shards accepted, campaign has %d", len(acceptedBy), shards)
	}
	select {
	case <-srv.Done(id):
	default:
		t.Fatalf("fleet drained but campaign %s is not done", id)
	}
	if err := srv.Err(id); err != nil {
		t.Fatal(err)
	}

	ctr := srv.CountersSnapshot()
	if ctr.SubmitsAccepted != shards || ctr.LeasesGranted < shards {
		t.Fatalf("counters %+v: want %d accepted submits and at least as many leases", ctr, shards)
	}
	recs, err := ReadJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	journaled, campaignRecs := map[int]int{}, 0
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
			t.Fatalf("journal holds %d records for shard %d", n, idx)
		}
	}
	if int64(len(journaled)) != ctr.SubmitsAccepted || int64(campaignRecs) != ctr.CampaignsSubmitted {
		t.Fatalf("journal holds %d shard and %d campaign records, counters claim %d accepted and %d submitted",
			len(journaled), campaignRecs, ctr.SubmitsAccepted, ctr.CampaignsSubmitted)
	}
	t.Logf("load smoke: %d workers drained %d shards with %d leases (%d empty polls), journal %d B",
		workers, shards, ctr.LeasesGranted, ctr.EmptyPolls, srv.JournalSize())
}
