package coordctl

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"symbiosched/internal/experiments"
)

// ErrCampaignDone is returned by Client.Lease when the coordinator reports
// the campaign over (successfully or not) — the worker should exit.
var ErrCampaignDone = errors.New("coordctl: campaign complete")

// ErrRejected is returned by Client.Submit when the coordinator refused
// the shard (422) — retrying the identical shard cannot succeed.
var ErrRejected = errors.New("coordctl: shard rejected")

// ErrUnauthorized is returned when the coordinator refuses the client's
// bearer token (401). Retrying with the same token cannot succeed, so the
// worker loop treats it as fatal rather than a transport failure.
var ErrUnauthorized = errors.New("coordctl: unauthorized (bad or missing bearer token)")

// Client speaks the worker side of the coordinator protocol.
type Client struct {
	// BaseURL is the coordinator root, e.g. "http://host:8377".
	BaseURL string
	// Worker names this worker in leases and shard provenance.
	Worker string
	// Token, when set, is sent as a bearer token on every request. Use the
	// worker token for lease/submit/status/report/trace, the admin token for
	// campaign submission and cancellation.
	Token string
	// TLS, when set, configures the transport's TLS (e.g. a custom root CA
	// from TLSConfigFromCA for a self-signed coordinator certificate).
	// Ignored when HTTP is set — bring your own transport then.
	TLS *tls.Config
	// HTTP is the transport (default: a client with a 30s timeout and the
	// TLS config above).
	HTTP *http.Client

	builtHTTP *http.Client // lazily built default transport
}

// TLSConfigFromCA returns a TLS config trusting (only) the PEM certificates
// in the given file — how a worker pins a coordinator's self-signed cert.
func TLSConfigFromCA(path string) (*tls.Config, error) {
	pem, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("coordctl: TLS CA: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("coordctl: TLS CA %s holds no usable PEM certificates", path)
	}
	return &tls.Config{RootCAs: pool}, nil
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	if c.builtHTTP == nil {
		hc := &http.Client{Timeout: 30 * time.Second}
		if c.TLS != nil {
			hc.Transport = &http.Transport{TLSClientConfig: c.TLS}
		}
		c.builtHTTP = hc
	}
	return c.builtHTTP
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

// newRequest builds a request with the client's auth header applied.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), body)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	return req, nil
}

// Lease asks for work. It returns (nil, nil) when nothing is leasable
// right now (back off and retry), ErrCampaignDone when the campaign is
// over, and a transport/protocol error otherwise.
func (c *Client) Lease(ctx context.Context) (*WorkUnit, error) {
	body, _ := json.Marshal(struct {
		Worker string `json:"worker"`
	}{c.Worker})
	req, err := c.newRequest(ctx, http.MethodPost, "/lease", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var wu WorkUnit
		if err := readJSON(resp.Body, resp.ContentLength, maxControlBody, &wu); err != nil {
			return nil, fmt.Errorf("coordctl: bad lease response: %w", err)
		}
		return &wu, nil
	case http.StatusNoContent:
		return nil, nil
	case http.StatusGone:
		return nil, ErrCampaignDone
	case http.StatusUnauthorized:
		return nil, ErrUnauthorized
	default:
		return nil, fmt.Errorf("coordctl: lease: %s", readError(resp))
	}
}

// Submit posts a completed shard under the work unit's lease. The campaign
// id routes the submission: leases die with a coordinator restart, campaign
// ids are journaled, so the id is what still names the campaign after a
// crash. The lease id rides along for the coordinator's log.
func (c *Client) Submit(ctx context.Context, wu *WorkUnit, sh experiments.Shard) (SubmitResult, error) {
	body, err := json.Marshal(sh)
	if err != nil {
		return SubmitResult{}, err
	}
	path := "/submit?lease=" + wu.LeaseID + "&campaign=" + wu.CampaignID
	req, err := c.newRequest(ctx, http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return SubmitResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return SubmitResult{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusUnauthorized:
		return SubmitResult{}, ErrUnauthorized
	case http.StatusRequestEntityTooLarge:
		// The same bytes would be refused again.
		return SubmitResult{}, fmt.Errorf("%w: %s", ErrRejected, readError(resp))
	}
	var res SubmitResult
	if err := readJSON(resp.Body, resp.ContentLength, maxControlBody, &res); err != nil {
		return SubmitResult{}, fmt.Errorf("coordctl: bad submit response (HTTP %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode == http.StatusUnprocessableEntity {
		return res, fmt.Errorf("%w: %s", ErrRejected, res.Error)
	}
	if resp.StatusCode == http.StatusGone {
		return res, ErrCampaignDone
	}
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("coordctl: submit: HTTP %d: %s", resp.StatusCode, res.Error)
	}
	return res, nil
}

// Status fetches a campaign's status document.
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	var st Status
	if err := c.getJSON(ctx, "/campaigns/"+id, &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// getJSON performs an authenticated GET expecting a 200 JSON body.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized {
		return ErrUnauthorized
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordctl: GET %s: %s", path, readError(resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("coordctl: bad response for %s: %w", path, err)
	}
	return nil
}

// SubmitCampaign posts a campaign spec to the daemon (admin token).
func (c *Client) SubmitCampaign(ctx context.Context, req CampaignRequest) (CampaignCreated, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return CampaignCreated{}, err
	}
	hr, err := c.newRequest(ctx, http.MethodPost, "/campaigns", bytes.NewReader(body))
	if err != nil {
		return CampaignCreated{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(hr)
	if err != nil {
		return CampaignCreated{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized {
		return CampaignCreated{}, ErrUnauthorized
	}
	if resp.StatusCode != http.StatusCreated {
		return CampaignCreated{}, fmt.Errorf("coordctl: submit campaign: %s", readError(resp))
	}
	var created CampaignCreated
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		return CampaignCreated{}, fmt.Errorf("coordctl: bad campaign response: %w", err)
	}
	return created, nil
}

// Campaigns lists the daemon's campaigns with progress.
func (c *Client) Campaigns(ctx context.Context) ([]CampaignSummary, error) {
	var out []CampaignSummary
	if err := c.getJSON(ctx, "/campaigns", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CancelCampaign cancels a running campaign (admin token).
func (c *Client) CancelCampaign(ctx context.Context, id string) error {
	req, err := c.newRequest(ctx, http.MethodDelete, "/campaigns/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized {
		return ErrUnauthorized
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordctl: cancel %s: %s", id, readError(resp))
	}
	return nil
}

// Report fetches a campaign's final merged report; errors while shards are
// outstanding (HTTP 409).
func (c *Client) Report(ctx context.Context, id string) (experiments.ImprovementReport, error) {
	var rep experiments.ImprovementReport
	if err := c.getJSON(ctx, "/campaigns/"+id+"/report", &rep); err != nil {
		return experiments.ImprovementReport{}, err
	}
	return rep, nil
}

// FetchTrace materialises one corpus trace into cacheDir, returning the
// cached path. The cache is content-addressed — the file is named by
// fingerprint, so campaigns sharing traces share downloads — and fetches are
// resumable: an interrupted download parks a .partial file whose length
// becomes the Range offset of the next attempt. Every fetched file is
// verified against the ref (size, content fingerprint, and for compiled
// traces a full content re-hash) before it is renamed into place; a cached
// file that fails verification is discarded and re-fetched, not trusted.
//
// The cache may be shared by any number of concurrent workers: each fetch
// downloads into its own unique temp file, claims the parked .partial by
// atomic rename (exactly one claimant resumes it; the rest start fresh),
// and completion renames over dest — concurrent fetches of one fingerprint
// end with one verified file and no interleaved writes.
func (c *Client) FetchTrace(ctx context.Context, ref experiments.TraceRef, cacheDir string) (string, error) {
	dest := filepath.Join(cacheDir, ref.Fingerprint+filepath.Ext(ref.File))
	if _, err := os.Stat(dest); err == nil {
		if err := experiments.VerifyTraceFile(dest, ref); err == nil {
			return dest, nil
		}
		os.Remove(dest) // cache corruption: re-fetch
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return "", fmt.Errorf("coordctl: trace cache: %w", err)
	}
	tmp, err := os.CreateTemp(cacheDir, ref.Fingerprint+".fetch-*")
	if err != nil {
		return "", fmt.Errorf("coordctl: trace cache: %w", err)
	}
	mine := tmp.Name()
	tmp.Close()
	partial := dest + ".partial"
	var offset int64
	if os.Rename(partial, mine) == nil {
		// Claimed the parked partial download; resume from its length.
		if st, err := os.Stat(mine); err == nil && st.Size() < ref.Size {
			offset = st.Size()
		}
	}

	req, err := c.newRequest(ctx, http.MethodGet, "/trace/"+ref.Fingerprint, nil)
	if err != nil {
		os.Remove(mine)
		return "", err
	}
	if offset > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", offset))
	}
	resp, err := c.http().Do(req)
	if err != nil {
		os.Rename(mine, partial) // park whatever was claimed for the next try
		return "", err
	}
	defer resp.Body.Close()
	switch {
	case offset > 0 && resp.StatusCode == http.StatusPartialContent:
		// Resuming: append to the claimed bytes from where they stopped.
	case resp.StatusCode == http.StatusOK:
		offset = 0 // full body (or the server ignored the range): restart
	case resp.StatusCode == http.StatusUnauthorized:
		os.Rename(mine, partial)
		return "", ErrUnauthorized
	default:
		os.Rename(mine, partial)
		return "", fmt.Errorf("coordctl: fetching trace %s: %s", ref.Fingerprint, readError(resp))
	}

	flags := os.O_WRONLY | os.O_TRUNC
	if offset > 0 {
		flags = os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(mine, flags, 0o644)
	if err != nil {
		os.Remove(mine)
		return "", fmt.Errorf("coordctl: trace cache: %w", err)
	}
	_, copyErr := io.Copy(f, resp.Body)
	closeErr := f.Close()
	if copyErr != nil {
		// Park the partial: whatever arrived resumes the next attempt.
		os.Rename(mine, partial)
		return "", fmt.Errorf("coordctl: fetching trace %s: %w", ref.Fingerprint, copyErr)
	}
	if closeErr != nil {
		os.Remove(mine)
		return "", fmt.Errorf("coordctl: trace cache: %w", closeErr)
	}
	if err := experiments.VerifyTraceFile(mine, ref); err != nil {
		os.Remove(mine) // wrong bytes resume into wrong bytes: start over
		return "", fmt.Errorf("coordctl: fetched trace failed verification: %w", err)
	}
	if err := os.Rename(mine, dest); err != nil {
		// On platforms where rename cannot replace an existing file, a
		// concurrent fetch winning the race is still a success: the cache
		// holds the verified content either way.
		if experiments.VerifyTraceFile(dest, ref) == nil {
			os.Remove(mine)
			return dest, nil
		}
		os.Remove(mine)
		return "", fmt.Errorf("coordctl: trace cache: %w", err)
	}
	return dest, nil
}

func readError(resp *http.Response) string {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	msg := strings.TrimSpace(string(b))
	if msg == "" {
		msg = resp.Status
	}
	return msg
}

// Worker is the lease → simulate → submit loop behind
// `symbiosched -worker <url>`.
type Worker struct {
	Client Client
	// Workers is the simulation parallelism per shard (0 = GOMAXPROCS).
	Workers int
	// Backoff paces lease polls and transport retries.
	Backoff Backoff
	// TraceCache, when set, is where this worker materialises a trace
	// campaign's corpus: every campaign trace is fetched from the
	// coordinator's /trace endpoint (content-addressed, verified, resumable)
	// and the pool is rebuilt from the cache. When empty, a trace campaign
	// falls back to reading Campaign.TraceDir directly — the shared-
	// filesystem deployment.
	TraceCache string
	// Run executes one shard (test hook; nil runs the real SweepShard).
	Run func(cfg experiments.Config, spec experiments.SweepSpec) (experiments.Shard, error)
	// MaxFailures caps consecutive transport failures before the worker
	// gives up (0 = default 10). A coordinator that has finished and
	// exited refuses connections; without this cap a worker sleeping in
	// backoff at that moment would retry the dead address forever.
	MaxFailures int
	// Logf, when set, receives one line per worker event.
	Logf func(format string, args ...any)

	failures        int // consecutive transport failures, reset on any contact
	resolveFailures int // consecutive spec-resolution failures, reset on success
}

// NewWorker returns a worker for the coordinator at url, named after the
// host and pid.
func NewWorker(url string, simWorkers int) *Worker {
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	return &Worker{
		Client:  Client{BaseURL: url, Worker: fmt.Sprintf("%s-%d", host, os.Getpid())},
		Workers: simWorkers,
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// fail records one transport failure and reports whether the budget of
// consecutive failures is spent.
func (w *Worker) fail() (spent bool) {
	w.failures++
	limit := w.MaxFailures
	if limit <= 0 {
		limit = 10
	}
	return w.failures >= limit
}

// contact records any successful exchange with the coordinator — a lease
// grant, an empty poll, a submit acknowledgement — resetting the
// consecutive-failure budget. A flaky network that drops every other
// request must never accumulate to the give-up limit.
func (w *Worker) contact() { w.failures = 0 }

// Loop serves the campaign until the coordinator says it is over or the
// context is cancelled. Transient failures (coordinator unreachable,
// nothing leasable yet) retry on the jittered exponential backoff, up to
// MaxFailures consecutive transport errors — after that the coordinator
// is presumed gone for good and Loop returns its last error. Fatal
// failures (this build cannot produce the campaign's results, or a shard
// this worker computed was rejected) return immediately, because retrying
// would re-submit the same wrong bytes forever.
func (w *Worker) Loop(ctx context.Context) error {
	for {
		wu, err := w.Client.Lease(ctx)
		switch {
		case errors.Is(err, ErrCampaignDone):
			w.logf("worker %s: campaign complete, exiting", w.Client.Worker)
			return nil
		case errors.Is(err, ErrUnauthorized):
			// A wrong token fails identically forever — burning the whole
			// transport-failure budget on it would just delay the inevitable.
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		case err != nil:
			if w.fail() {
				return fmt.Errorf("coordctl: coordinator unreachable after %d consecutive failures: %w", w.failures, err)
			}
			d := w.Backoff.Next()
			w.logf("worker %s: lease failed (%v), retrying in %v", w.Client.Worker, err, d)
			if !sleep(ctx, d) {
				return ctx.Err()
			}
			continue
		case wu == nil:
			// Any successful poll is proof of a live coordinator, so the
			// consecutive-failure budget resets even without a lease grant.
			w.contact()
			d := w.Backoff.Next()
			w.logf("worker %s: no shard leasable, polling again in %v", w.Client.Worker, d)
			if !sleep(ctx, d) {
				return ctx.Err()
			}
			continue
		}
		w.contact()
		w.Backoff.Reset()
		done, err := w.runUnit(ctx, wu)
		if err != nil {
			return err
		}
		if done {
			w.logf("worker %s: campaign complete, exiting", w.Client.Worker)
			return nil
		}
	}
}

// resolveSpec builds the campaign's sweep spec on this worker. Trace
// campaigns resolve through the corpus cache when one is configured: every
// manifest ref is fetched (or found already cached) and verified, then the
// pool is rebuilt from the cached files in manifest order. Without a cache,
// the campaign's TraceDir path is read directly, which requires a shared
// filesystem with the coordinator.
func (w *Worker) resolveSpec(ctx context.Context, campaign Campaign) (experiments.SweepSpec, error) {
	if len(campaign.Traces) == 0 || w.TraceCache == "" {
		return campaign.Spec()
	}
	paths := make(map[string]string, len(campaign.Traces))
	for _, ref := range campaign.Traces {
		path, err := w.Client.FetchTrace(ctx, ref, w.TraceCache)
		if err != nil {
			return experiments.SweepSpec{}, err
		}
		w.logf("worker %s: trace %s (%s) cached at %s", w.Client.Worker, ref.Name, ref.Fingerprint, path)
		paths[ref.Fingerprint] = path
	}
	files, err := experiments.TraceFilesFor(campaign.Traces, func(ref experiments.TraceRef) string {
		return paths[ref.Fingerprint]
	})
	if err != nil {
		return experiments.SweepSpec{}, err
	}
	return campaign.SpecFromFiles(files)
}

// runUnit executes one leased shard and submits it, retrying the submit on
// transport errors up to the consecutive-failure budget (the lease expiring
// behind our back is fine — the coordinator keeps the first valid result).
// It reports done=true when the submit response says this shard completed
// the campaign, so the worker can exit without another lease round trip.
func (w *Worker) runUnit(ctx context.Context, wu *WorkUnit) (done bool, err error) {
	cfg := wu.Campaign.Config()
	cfg.Workers = w.Workers
	cfg.ShardIndex, cfg.ShardTotal = wu.ShardIndex, wu.Campaign.ShardTotal
	if got := cfg.CampaignHash(); got != wu.Campaign.ConfigHash {
		return false, fmt.Errorf("coordctl: this build computes config hash %s, campaign wants %s — version skew, not retryable", got, wu.Campaign.ConfigHash)
	}
	spec, err := w.resolveSpec(ctx, wu.Campaign)
	if err != nil {
		// Trace fetches fail transiently (coordinator restarting, a torn
		// connection, a concurrent fetch racing the cache): abandon the
		// lease, back off, and try again on the next round. A corpus that
		// can never resolve still terminates the worker through the
		// consecutive-failure budget.
		w.resolveFailures++
		limit := w.MaxFailures
		if limit <= 0 {
			limit = 10
		}
		if w.resolveFailures >= limit {
			return false, fmt.Errorf("coordctl: cannot resolve campaign after %d consecutive attempts: %w", w.resolveFailures, err)
		}
		d := w.Backoff.Next()
		w.logf("worker %s: cannot resolve campaign (%v), abandoning lease and retrying in %v", w.Client.Worker, err, d)
		if !sleep(ctx, d) {
			return false, ctx.Err()
		}
		return false, nil
	}
	w.resolveFailures = 0
	if got := experiments.PoolHashProfiles(spec.Pool); got != wu.Campaign.PoolHash {
		// The same check the coordinator applies at submit, pulled forward:
		// wrong trace content fails in milliseconds, not after a full shard.
		return false, fmt.Errorf("coordctl: this worker resolves pool hash %s, campaign wants %s — trace content skew, not retryable", got, wu.Campaign.PoolHash)
	}
	w.logf("worker %s: running shard %d/%d of %s (lease %s, attempt %d)",
		w.Client.Worker, wu.ShardIndex, wu.Campaign.ShardTotal, wu.Campaign.Figure, wu.LeaseID, wu.Attempt)
	run := w.Run
	if run == nil {
		run = func(cfg experiments.Config, spec experiments.SweepSpec) (experiments.Shard, error) {
			return cfg.RunShard(spec)
		}
	}
	sh, err := run(cfg, spec)
	if err != nil {
		// A local simulation failure abandons the lease; the coordinator
		// will re-dispatch the shard when it expires.
		w.logf("worker %s: shard %d failed locally: %v (abandoning lease)", w.Client.Worker, wu.ShardIndex, err)
		return false, nil
	}
	sh.Worker, sh.Attempt = w.Client.Worker, wu.Attempt
	for {
		res, err := w.Client.Submit(ctx, wu, sh)
		switch {
		case errors.Is(err, ErrCampaignDone):
			// The campaign ended while we were computing; our result is moot.
			return true, nil
		case errors.Is(err, ErrUnauthorized):
			return false, err
		case errors.Is(err, ErrRejected):
			return false, fmt.Errorf("coordctl: shard %d rejected by coordinator: %w", wu.ShardIndex, err)
		case ctx.Err() != nil:
			return false, ctx.Err()
		case err != nil:
			if w.fail() {
				return false, fmt.Errorf("coordctl: coordinator unreachable after %d consecutive failures: %w", w.failures, err)
			}
			d := w.Backoff.Next()
			w.logf("worker %s: submit of shard %d failed (%v), retrying in %v", w.Client.Worker, wu.ShardIndex, err, d)
			if !sleep(ctx, d) {
				return false, ctx.Err()
			}
			continue
		}
		w.contact()
		w.Backoff.Reset()
		switch {
		case res.Accepted:
			w.logf("worker %s: shard %d accepted", w.Client.Worker, wu.ShardIndex)
		case res.Superseded:
			w.logf("worker %s: shard %d superseded (another worker finished first)", w.Client.Worker, wu.ShardIndex)
		}
		return res.Done, nil
	}
}
