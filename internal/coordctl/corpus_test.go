package coordctl

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"symbiosched/internal/experiments"
	"symbiosched/internal/trace"
	"symbiosched/internal/workload"
)

// writeCorpusDir captures five quick-scale benchmarks into dir as compiled
// traces, alternating the raw and the framed container, so a corpus
// campaign exercises both end to end.
func writeCorpusDir(t *testing.T, dir string) {
	t.Helper()
	names := []string{"gobmk", "libquantum", "mcf", "povray", "sjeng"}
	for i, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ct := trace.CaptureRuns(p.NewThreads(1, 77, 64)[0], 60_000)
		f, err := os.Create(filepath.Join(dir, name+trace.CompiledExt))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			err = trace.WriteCompiled(f, ct)
		} else {
			err = trace.WriteCompiledFrames(f, ct, 2048, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorpusCampaignEndToEnd is the corpus round-trip gate: a trace campaign
// served over HTTP to a worker with an empty content-addressed cache — the
// worker fetches every trace from the coordinator, verifies it, rebuilds the
// pool, runs its shards — must produce a report byte-identical to a local
// sweep reading the trace directory directly.
func TestCorpusCampaignEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeCorpusDir(t, dir)
	campaign, err := NewCampaign("fig10", true, 0, nil, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(campaign.Traces) != 5 {
		t.Fatalf("campaign manifest has %d traces, want 5", len(campaign.Traces))
	}
	srv, hs, id := newTestServer(t, campaign, time.Minute, 3)

	cache := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	workers := make([]*Worker, 2)
	errs := make([]error, len(workers))
	for i := range workers {
		workers[i] = &Worker{
			Client:     Client{BaseURL: hs.URL, Worker: "fetcher-" + string(rune('a'+i))},
			Workers:    1,
			Backoff:    Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond},
			TraceCache: cache,
			Logf:       t.Logf,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = workers[i].Loop(ctx)
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

	// The cache holds one content-addressed file per manifest ref.
	for _, ref := range campaign.Traces {
		cached := filepath.Join(cache, ref.Fingerprint+filepath.Ext(ref.File))
		if err := experiments.VerifyTraceFile(cached, ref); err != nil {
			t.Errorf("cache entry for %s: %v", ref.Name, err)
		}
	}

	// Byte-identical equivalence with a local sweep over the directory.
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
		t.Fatalf("corpus-fetched report differs from local trace-dir sweep:\ndirect: %s\nmerged: %s", da, db)
	}
}

// TestFetchTraceResume pins the ranged-resume path: a fetch finding a
// .partial file asks for the remaining bytes only, the server answers 206,
// and the stitched file verifies against the corpus address.
func TestFetchTraceResume(t *testing.T) {
	dir := t.TempDir()
	writeCorpusDir(t, dir)
	campaign, err := NewCampaign("fig10", true, 0, nil, dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerOptions{Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitCampaign(campaign); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var ranges []string
	var statuses []int
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, r)
		mu.Lock()
		ranges = append(ranges, r.Header.Get("Range"))
		statuses = append(statuses, rec.Code)
		mu.Unlock()
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer hs.Close()

	ref := campaign.Traces[2]
	orig, err := os.ReadFile(filepath.Join(dir, ref.File))
	if err != nil {
		t.Fatal(err)
	}

	// Seed the cache with the first 40% of the file, as a torn download.
	cache := t.TempDir()
	partial := filepath.Join(cache, ref.Fingerprint+filepath.Ext(ref.File)+".partial")
	cut := len(orig) * 2 / 5
	if err := os.WriteFile(partial, orig[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	c := Client{BaseURL: hs.URL, Worker: "resumer"}
	path, err := c.FetchTrace(context.Background(), ref, cache)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatalf("resumed fetch produced %d bytes that differ from the %d-byte original", len(got), len(orig))
	}
	if _, err := os.Stat(partial); !os.IsNotExist(err) {
		t.Fatal("partial file left behind after a completed fetch")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ranges) != 1 || !strings.HasPrefix(ranges[0], "bytes=") {
		t.Fatalf("expected one ranged request, saw %q", ranges)
	}
	if statuses[0] != http.StatusPartialContent {
		t.Fatalf("resume answered HTTP %d, want 206", statuses[0])
	}

	// A second fetch is a pure cache hit: no HTTP traffic at all.
	before := len(ranges)
	mu.Unlock()
	if _, err := c.FetchTrace(context.Background(), ref, cache); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(ranges) != before {
		t.Fatalf("cache hit still fetched (%d requests)", len(ranges)-before)
	}
}

// TestFetchTraceConcurrentSharedCache pins the shared-cache race: many
// workers fetching the same fingerprint into one cache directory
// concurrently (some with a parked .partial to claim) must all succeed with
// a verified file and leave no temp debris — the failure mode was two
// fetches renaming one shared .partial and the loser dying on ENOENT.
func TestFetchTraceConcurrentSharedCache(t *testing.T) {
	dir := t.TempDir()
	writeCorpusDir(t, dir)
	campaign, err := NewCampaign("fig10", true, 0, nil, dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerOptions{Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitCampaign(campaign); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	ref := campaign.Traces[1]
	orig, err := os.ReadFile(filepath.Join(dir, ref.File))
	if err != nil {
		t.Fatal(err)
	}
	cache := t.TempDir()
	// Park a torn download for the claim-by-rename path to race over.
	partial := filepath.Join(cache, ref.Fingerprint+filepath.Ext(ref.File)+".partial")
	if err := os.WriteFile(partial, orig[:len(orig)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	const fetchers = 8
	var wg sync.WaitGroup
	errs := make([]error, fetchers)
	paths := make([]string, fetchers)
	for i := 0; i < fetchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := Client{BaseURL: hs.URL, Worker: "racer"}
			paths[i], errs[i] = c.FetchTrace(context.Background(), ref, cache)
		}(i)
	}
	wg.Wait()
	for i := 0; i < fetchers; i++ {
		if errs[i] != nil {
			t.Fatalf("fetcher %d: %v", i, errs[i])
		}
		got, err := os.ReadFile(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, orig) {
			t.Fatalf("fetcher %d got %d bytes differing from the %d-byte original", i, len(got), len(orig))
		}
	}
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("cache holds %v, want exactly the one content-addressed file", names)
	}
}

// TestFetchTraceRejectsTamperedContent: a coordinator (or middlebox) serving
// bytes that do not hash to the requested fingerprint is detected and the
// fetch fails — wrong content never enters the cache.
func TestFetchTraceRejectsTamperedContent(t *testing.T) {
	dir := t.TempDir()
	writeCorpusDir(t, dir)
	campaign, err := NewCampaign("fig10", true, 0, nil, dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerOptions{Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitCampaign(campaign); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Tamper with a corpus file after the server indexed it.
	ref := campaign.Traces[0]
	path := filepath.Join(dir, ref.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cache := t.TempDir()
	c := Client{BaseURL: hs.URL, Worker: "victim"}
	if _, err := c.FetchTrace(context.Background(), ref, cache); err == nil {
		t.Fatal("tampered trace fetched cleanly")
	}
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("tampered fetch left %d files in the cache", len(entries))
	}

	// An unknown fingerprint is a clean 404, not a hang or a zero-byte file.
	bogus := ref
	bogus.Fingerprint = "00000000deadbeef"
	if _, err := c.FetchTrace(context.Background(), bogus, cache); err == nil {
		t.Fatal("unknown fingerprint fetched cleanly")
	}
}
