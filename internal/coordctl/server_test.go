package coordctl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"symbiosched/internal/experiments"
)

// tWriter adapts t.Logf into an io.Writer for slog handlers.
type tWriter struct{ t *testing.T }

func (w tWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// testLogger routes the server's structured log into the test log.
func testLogger(t *testing.T) *slog.Logger {
	t.Helper()
	return slog.New(slog.NewTextHandler(tWriter{t}, nil))
}

// quickCampaign is the test campaign: the 5-benchmark quick-scale slice of
// fig10 the shardcheck gate already uses (C(5,4) = 5 combos), cut into
// `shards` shards.
func quickCampaign(t *testing.T, shards int) Campaign {
	t.Helper()
	pool := []string{"povray", "gobmk", "hmmer", "libquantum", "sjeng"}
	c, err := NewCampaign("fig10", true, 0, pool, "", shards)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newTestServer builds an in-memory daemon already serving campaign c, and
// returns the campaign's id alongside.
func newTestServer(t *testing.T, c Campaign, leaseTimeout time.Duration, maxAttempts int) (*Server, *httptest.Server, string) {
	t.Helper()
	srv, err := NewServer(ServerOptions{
		LeaseTimeout: leaseTimeout,
		MaxAttempts:  maxAttempts,
		Logger:       testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := srv.SubmitCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs, id
}

// stubShard fabricates a header-valid shard for protocol-level tests and
// benchmarks that must not pay for a real simulation. Outcomes are
// empty-but-counted, which the merge accepts (it validates counts and
// headers, not physics).
func stubShard(tb testing.TB, c Campaign, idx int) experiments.Shard {
	tb.Helper()
	combos, err := c.Combos()
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := c.Spec()
	if err != nil {
		tb.Fatal(err)
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
	}
}

// mustStatus fetches a campaign's status document or fails the test.
func mustStatus(t *testing.T, srv *Server, id string) Status {
	t.Helper()
	st, err := srv.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCoordinatorEndToEnd is the acceptance test for the distributed path:
// a 3-shard campaign served to real workers over HTTP, with one worker
// crashing mid-shard (it leases and never submits), must re-dispatch the
// lost shard and produce an ImprovementReport byte-identical to the
// single-process Sweep of the same campaign.
func TestCoordinatorEndToEnd(t *testing.T) {
	campaign := quickCampaign(t, 3)
	srv, hs, id := newTestServer(t, campaign, 250*time.Millisecond, 5)

	// The crash: lease a shard and abandon it, exactly what a worker dying
	// mid-simulation looks like to the coordinator.
	crashed := Client{BaseURL: hs.URL, Worker: "crash-victim"}
	wu, err := crashed.Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if wu == nil {
		t.Fatal("no work unit for the first worker")
	}
	if wu.CampaignID != id {
		t.Fatalf("work unit names campaign %q, daemon assigned %q", wu.CampaignID, id)
	}
	lostShard := wu.ShardIndex

	// Three healthy workers drain the campaign, re-dispatched shard
	// included, through the real lease → SweepShard → submit loop.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		w := &Worker{
			Client:  Client{BaseURL: hs.URL, Worker: "worker-" + string(rune('a'+i))},
			Workers: 1,
			Backoff: Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond},
			Logf:    t.Logf,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Loop(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	select {
	case <-srv.Done(id):
	default:
		t.Fatal("workers exited but campaign is not done")
	}
	if err := srv.Err(id); err != nil {
		t.Fatal(err)
	}

	// The state machine must record the crash: the lost shard went through
	// at least two dispatch attempts and still completed.
	st := mustStatus(t, srv, id)
	if st.State != "done" {
		t.Fatalf("campaign state %q, want done", st.State)
	}
	if got := st.Shards[lostShard]; got.State != "done" || got.Attempts < 2 {
		t.Fatalf("lost shard %d: state %s after %d attempts, want done after >= 2 (re-dispatch)",
			lostShard, got.State, got.Attempts)
	}
	if st.CombosCovered != st.TotalCombos {
		t.Fatalf("covered %d of %d combos", st.CombosCovered, st.TotalCombos)
	}
	for _, sh := range st.Shards {
		if sh.Worker == "" || sh.Worker == "crash-victim" {
			t.Fatalf("shard %d attributed to %q", sh.Index, sh.Worker)
		}
	}

	// Byte-identical equivalence with the sequential sweep, compared
	// through JSON so every float is checked exactly.
	merged, err := srv.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config()
	spec, err := campaign.Spec()
	if err != nil {
		t.Fatal(err)
	}
	direct := cfg.Sweep(spec.Pool, spec.Policy, spec.MixSize, spec.Virt)
	da, _ := json.Marshal(direct)
	db, _ := json.Marshal(merged)
	if string(da) != string(db) {
		t.Fatalf("distributed report differs from sequential sweep:\ndirect: %s\nmerged: %s", da, db)
	}
}

// TestCoordinatorRejectsMisconfiguredWorker pins the submission gate: a
// shard whose config hash does not match the campaign is rejected with
// ErrShardCampaign semantics (HTTP 422), never merged, and the shard is
// re-dispatched rather than lost.
func TestCoordinatorRejectsMisconfiguredWorker(t *testing.T) {
	campaign := quickCampaign(t, 1)
	srv, hs, id := newTestServer(t, campaign, time.Minute, 3)
	cl := Client{BaseURL: hs.URL, Worker: "misconfigured"}
	ctx := context.Background()

	wu, err := cl.Lease(ctx)
	if err != nil || wu == nil {
		t.Fatalf("lease: %v %v", wu, err)
	}
	bad := stubShard(t, campaign, 0)
	bad.ConfigHash = "deadbeefdeadbeef" // e.g. a worker built at a different commit, or run at a different scale
	res, err := cl.Submit(ctx, wu, bad)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("mis-hashed shard not rejected: res=%+v err=%v", res, err)
	}
	if !strings.Contains(res.Error, "config hash") {
		t.Fatalf("rejection does not name the config hash: %q", res.Error)
	}

	st := mustStatus(t, srv, id)
	if st.CombosCovered != 0 {
		t.Fatal("rejected shard leaked into the merge")
	}
	if st.Shards[0].State != "pending" {
		t.Fatalf("rejected shard state %q, want pending (re-dispatch)", st.Shards[0].State)
	}

	// A correctly configured worker then completes the campaign.
	good := Client{BaseURL: hs.URL, Worker: "good"}
	wu2, err := good.Lease(ctx)
	if err != nil || wu2 == nil {
		t.Fatalf("re-lease: %v %v", wu2, err)
	}
	if wu2.Attempt != 2 {
		t.Fatalf("re-dispatch attempt %d, want 2", wu2.Attempt)
	}
	res2, err := good.Submit(ctx, wu2, stubShard(t, campaign, 0))
	if err != nil || !res2.Accepted || !res2.Done || !res2.CampaignDone {
		t.Fatalf("valid shard not accepted: res=%+v err=%v", res2, err)
	}
	if err := srv.Err(id); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorDuplicateResolution pins the straggler story: when a
// shard is re-dispatched and both workers eventually submit, the first
// valid result is kept and the straggler is told "superseded", not given
// an error or a second merge.
func TestCoordinatorDuplicateResolution(t *testing.T) {
	campaign := quickCampaign(t, 2)
	srv, hs, id := newTestServer(t, campaign, 50*time.Millisecond, 3)
	ctx := context.Background()

	slow := Client{BaseURL: hs.URL, Worker: "straggler"}
	wuSlow, err := slow.Lease(ctx)
	if err != nil || wuSlow == nil {
		t.Fatalf("lease: %v %v", wuSlow, err)
	}
	time.Sleep(80 * time.Millisecond) // let the lease expire

	fast := Client{BaseURL: hs.URL, Worker: "fast"}
	wuFast, err := fast.Lease(ctx)
	if err != nil || wuFast == nil {
		t.Fatalf("post-expiry lease: %v %v", wuFast, err)
	}
	if wuFast.ShardIndex != wuSlow.ShardIndex {
		t.Fatalf("expired shard %d not re-dispatched first (got %d)", wuSlow.ShardIndex, wuFast.ShardIndex)
	}
	res, err := fast.Submit(ctx, wuFast, stubShard(t, campaign, wuFast.ShardIndex))
	if err != nil || !res.Accepted {
		t.Fatalf("fast submit: res=%+v err=%v", res, err)
	}

	// The streaming merge is live before the campaign completes.
	st := mustStatus(t, srv, id)
	if st.CombosCovered == 0 || st.CombosCovered >= st.TotalCombos {
		t.Fatalf("partial merge covers %d of %d combos, want strictly between", st.CombosCovered, st.TotalCombos)
	}
	if st.Partial == nil || st.Partial.Mixes != st.CombosCovered {
		t.Fatalf("partial report %+v does not reflect %d covered combos", st.Partial, st.CombosCovered)
	}

	// The straggler finally finishes the same shard: superseded, no error.
	resDup, err := slow.Submit(ctx, wuSlow, stubShard(t, campaign, wuSlow.ShardIndex))
	if err != nil {
		t.Fatalf("duplicate submit errored: %v", err)
	}
	if !resDup.Superseded || resDup.Accepted {
		t.Fatalf("duplicate submission result %+v, want superseded", resDup)
	}

	// Drain the remaining shard and confirm completion.
	wu2, err := fast.Lease(ctx)
	if err != nil || wu2 == nil {
		t.Fatalf("second lease: %v %v", wu2, err)
	}
	if _, err := fast.Submit(ctx, wu2, stubShard(t, campaign, wu2.ShardIndex)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.Done(id):
	default:
		t.Fatal("campaign not done after all shards submitted")
	}
}

// TestCoordinatorFailsAfterMaxAttempts pins the give-up path: a shard that
// keeps timing out exhausts its dispatch budget and fails the campaign,
// and workers are told to stop (410) rather than spin.
func TestCoordinatorFailsAfterMaxAttempts(t *testing.T) {
	campaign := quickCampaign(t, 1)
	srv, hs, id := newTestServer(t, campaign, 10*time.Millisecond, 2)
	cl := Client{BaseURL: hs.URL, Worker: "doomed"}
	ctx := context.Background()

	for attempt := 1; ; attempt++ {
		wu, err := cl.Lease(ctx)
		if errors.Is(err, ErrCampaignDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if wu == nil {
			time.Sleep(15 * time.Millisecond)
			continue
		}
		if attempt > 2 {
			t.Fatalf("shard dispatched %d times, budget was 2", attempt)
		}
		time.Sleep(15 * time.Millisecond) // hold the lease past its deadline
	}
	select {
	case <-srv.Done(id):
	case <-time.After(time.Second):
		t.Fatal("campaign did not terminate")
	}
	if err := srv.Err(id); err == nil || !strings.Contains(err.Error(), "failed after 2 attempts") {
		t.Fatalf("campaign error %v, want permanent shard failure", err)
	}
	if _, err := srv.Report(id); err == nil {
		t.Fatal("failed campaign produced a report")
	}
	st := mustStatus(t, srv, id)
	if st.State != "failed" || st.Shards[0].State != "failed" {
		t.Fatalf("status %s/%s, want failed/failed", st.State, st.Shards[0].State)
	}
}

// TestWorkerLoopAgainstStubRun exercises the worker loop end to end with a
// stubbed simulation: leases drain in order, provenance is stamped, and
// the loop exits on campaign completion.
func TestWorkerLoopAgainstStubRun(t *testing.T) {
	campaign := quickCampaign(t, 3)
	srv, hs, id := newTestServer(t, campaign, time.Minute, 3)
	w := &Worker{
		Client:  Client{BaseURL: hs.URL, Worker: "stubbed"},
		Backoff: Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		Run: func(cfg experiments.Config, spec experiments.SweepSpec) (experiments.Shard, error) {
			return stubShard(t, campaign, cfg.ShardIndex), nil
		},
		Logf: t.Logf,
	}
	if err := w.Loop(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := mustStatus(t, srv, id)
	if st.State != "done" {
		t.Fatalf("campaign state %q after worker loop", st.State)
	}
	for _, sh := range st.Shards {
		if sh.Worker != "stubbed" || sh.Attempts != 1 {
			t.Fatalf("shard %d: worker %q attempts %d, want stubbed/1", sh.Index, sh.Worker, sh.Attempts)
		}
	}
}

// TestWorkerGivesUpWhenCoordinatorGone pins the teardown story: a worker
// polling a coordinator that has exited (connection refused, not 410) must
// stop after its consecutive-failure budget instead of retrying forever.
func TestWorkerGivesUpWhenCoordinatorGone(t *testing.T) {
	hs := httptest.NewServer(nil)
	url := hs.URL
	hs.Close() // nothing listens here anymore

	w := &Worker{
		Client:      Client{BaseURL: url, Worker: "orphan"},
		Backoff:     Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		MaxFailures: 3,
		Logf:        t.Logf,
	}
	err := w.Loop(context.Background())
	if err == nil {
		t.Fatal("Loop returned nil against a dead coordinator")
	}
	if !strings.Contains(err.Error(), "after 3 consecutive failures") {
		t.Fatalf("Loop error %q does not name the failure budget", err)
	}
}

// roundFixture is BenchmarkLeaseSubmitRound's workload: fig10 campaigns
// over the whole 12-benchmark pool, one shard per combination (495), with
// every shard body marshalled once up front.
type roundFixture struct {
	campaigns []Campaign
	bodies    map[string][][]byte // campaign id → shard index → body
}

func newRoundFixture(b *testing.B, campaigns int) *roundFixture {
	b.Helper()
	fx := &roundFixture{bodies: map[string][][]byte{}}
	for i := 0; i < campaigns; i++ {
		c, err := NewCampaign("fig10", true, uint64(i)+1, nil, "", 495)
		if err != nil {
			b.Fatal(err)
		}
		bodies := make([][]byte, c.ShardTotal)
		for idx := range bodies {
			if bodies[idx], err = json.Marshal(stubShard(b, c, idx)); err != nil {
				b.Fatal(err)
			}
		}
		fx.campaigns = append(fx.campaigns, c)
		// Campaign ids are assigned in submission order: c1, c2, ...
		fx.bodies[fmt.Sprintf("c%d", i+1)] = bodies
	}
	return fx
}

// start returns a fresh in-memory daemon serving every campaign.
func (fx *roundFixture) start(b *testing.B) http.Handler {
	b.Helper()
	srv, err := NewServer(ServerOptions{LeaseTimeout: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range fx.campaigns {
		if _, err := srv.SubmitCampaign(c); err != nil {
			b.Fatal(err)
		}
	}
	return srv.Handler()
}

// round makes one lease and submits the leased shard, straight into the
// handler. It reports false once the daemon has nothing left to lease.
func (fx *roundFixture) round(b *testing.B, h http.Handler) bool {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/lease", strings.NewReader(`{"worker":"bench"}`)))
	if rec.Code == http.StatusGone {
		return false
	}
	var wu struct {
		CampaignID string `json:"campaign_id"`
		ShardIndex int    `json:"shard_index"`
		LeaseID    string `json:"lease_id"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &wu) != nil {
		b.Fatalf("lease: HTTP %d %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/submit?lease="+wu.LeaseID+"&campaign="+wu.CampaignID,
		bytes.NewReader(fx.bodies[wu.CampaignID][wu.ShardIndex])))
	if rec.Code != http.StatusOK {
		b.Fatalf("submit: HTTP %d %s", rec.Code, rec.Body)
	}
	return true
}

// BenchmarkLeaseSubmitRound times one lease plus one submit through the
// daemon's HTTP handler, with 1 and with 16 campaigns of 495 shards
// registered. A drained daemon is replaced off the clock.
func BenchmarkLeaseSubmitRound(b *testing.B) {
	for _, campaigns := range []int{1, 16} {
		b.Run(fmt.Sprintf("campaigns=%d", campaigns), func(b *testing.B) {
			fx := newRoundFixture(b, campaigns)
			h := fx.start(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !fx.round(b, h) {
					b.StopTimer()
					h = fx.start(b)
					b.StartTimer()
					fx.round(b, h)
				}
			}
		})
	}
}

// TestOversizedBodiesRefused: a lease, campaign or shard body over its
// endpoint's limit is answered 413 and changes nothing — no lease granted,
// no campaign registered, nothing merged — and the daemon keeps serving.
func TestOversizedBodiesRefused(t *testing.T) {
	campaign := quickCampaign(t, 5)
	srv, hs, id := newTestServer(t, campaign, time.Minute, 3)
	h := srv.Handler()
	serve := func(method, target string, body string, declared int64) int {
		t.Helper()
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	// A lease body one byte over the limit, streamed with no declared
	// length, and the same body declared up front.
	lease := `{"worker":"` + strings.Repeat("w", maxControlBody-12) + `"}`
	if len(lease) != maxControlBody+1 {
		t.Fatalf("lease body is %d bytes, want %d", len(lease), maxControlBody+1)
	}
	for _, declared := range []int64{-1, int64(len(lease))} {
		if code := serve(http.MethodPost, "/lease", lease, declared); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized lease (declared %d): HTTP %d, want 413", declared, code)
		}
	}
	// A campaign request over the same limit.
	spec := `{"figure":"fig10","quick":true,"shards":1,"trace_dir":"` + strings.Repeat("d", maxControlBody) + `"}`
	if code := serve(http.MethodPost, "/campaigns", spec, -1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized campaign request: HTTP %d, want 413", code)
	}
	// A valid shard whose declared length is over the shard limit is
	// refused before its body is read.
	body, err := json.Marshal(stubShard(t, campaign, 0))
	if err != nil {
		t.Fatal(err)
	}
	if code := serve(http.MethodPost, "/submit?campaign="+id, string(body), maxShardBody+1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized shard: HTTP %d, want 413", code)
	}

	ctr := srv.CountersSnapshot()
	if ctr.LeasesGranted != 0 || ctr.SubmitsAccepted != 0 || ctr.SubmitsRejected != 0 || ctr.CampaignsSubmitted != 1 {
		t.Fatalf("refused bodies changed the counters: %+v", ctr)
	}
	if st := mustStatus(t, srv, id); st.CombosCovered != 0 || st.Partial != nil {
		t.Fatalf("refused shard was merged: %+v", st)
	}

	// The daemon keeps serving: the same shard, leased and submitted
	// normally, is accepted.
	ctx := context.Background()
	cl := Client{BaseURL: hs.URL, Worker: "after-413"}
	wu, err := cl.Lease(ctx)
	if err != nil || wu == nil || wu.ShardIndex != 0 {
		t.Fatalf("lease after 413s: %+v %v", wu, err)
	}
	if res, err := cl.Submit(ctx, wu, stubShard(t, campaign, 0)); err != nil || !res.Accepted {
		t.Fatalf("submit after 413s: %+v %v", res, err)
	}
	// A body of exactly the limit is served.
	atLimit := `{"worker":"` + strings.Repeat("w", maxControlBody-13) + `"}`
	if code := serve(http.MethodPost, "/lease", atLimit, -1); code != http.StatusOK {
		t.Fatalf("lease body at the limit: HTTP %d, want 200", code)
	}
}

// TestMetricsShardCountsMatchScan drives two campaigns through an expiry,
// a rejected and an accepted submission, and a cancellation. After each
// step the coordinator_campaign_shards lines of /metrics, which read the
// lease tables' state counts, must equal the lines a scan of every entry
// gives: zero-count states omitted, states in name order.
func TestMetricsShardCountsMatchScan(t *testing.T) {
	now := time.Unix(5000, 0)
	var clock sync.Mutex
	srv, err := NewServer(ServerOptions{LeaseTimeout: time.Minute, MaxAttempts: 3, Logger: testLogger(t),
		Clock: func() time.Time { clock.Lock(); defer clock.Unlock(); return now }})
	if err != nil {
		t.Fatal(err)
	}
	campaign := quickCampaign(t, 5)
	var ids []string
	for range 2 {
		id, err := srv.SubmitCampaign(campaign)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx := context.Background()
	cl := Client{BaseURL: hs.URL, Worker: "metrics"}

	check := func(step string) {
		t.Helper()
		resp, err := hs.Client().Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		var got []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "coordinator_campaign_shards{") {
				got = append(got, line)
			}
		}
		var want []string
		srv.mu.Lock()
		for _, id := range srv.order {
			cs := srv.campaigns[id]
			counts := map[string]int{}
			for i := range cs.table.entries {
				counts[cs.table.entries[i].state.String()]++
			}
			states := make([]string, 0, len(counts))
			for st := range counts {
				states = append(states, st)
			}
			sort.Strings(states)
			for _, st := range states {
				want = append(want, fmt.Sprintf("coordinator_campaign_shards{campaign=%q,figure=%q,state=%q} %d", id, cs.c.Figure, st, counts[st]))
			}
		}
		srv.mu.Unlock()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: /metrics shard lines\n%s\nscan\n%s", step, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	lease := func() *WorkUnit {
		t.Helper()
		wu, err := cl.Lease(ctx)
		if err != nil || wu == nil {
			t.Fatalf("lease: %+v %v", wu, err)
		}
		return wu
	}

	check("fresh")
	for range 3 {
		lease()
	}
	check("three leased")

	// Every lease expires; the scrape's own sweep requeues them.
	clock.Lock()
	now = now.Add(2 * time.Minute)
	clock.Unlock()
	check("expired")

	// A shard with the wrong pool hash is rejected back to pending.
	wu := lease()
	bad := stubShard(t, campaign, wu.ShardIndex)
	bad.PoolHash = "0000000000000000"
	if _, err := cl.Submit(ctx, wu, bad); !errors.Is(err, ErrRejected) {
		t.Fatalf("bad shard: %v, want ErrRejected", err)
	}
	check("rejected")

	wu = lease()
	if res, err := cl.Submit(ctx, wu, stubShard(t, campaign, wu.ShardIndex)); err != nil || !res.Accepted {
		t.Fatalf("submit: %+v %v", res, err)
	}
	lease()
	check("accepted")

	if err := srv.CancelCampaign(ids[0]); err != nil {
		t.Fatal(err)
	}
	check("cancelled")
}
