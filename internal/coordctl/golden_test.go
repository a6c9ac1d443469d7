package coordctl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"symbiosched/internal/experiments"
)

// TestDrainedCampaignsMatchGolden drains 16 fabricated campaigns under a
// fixed clock and compares every read surface of the finished daemon — the
// campaign list, each campaign's status and report, and /metrics — byte for
// byte with testdata/drained.golden. A late duplicate of an accepted shard
// is then acknowledged as superseded without changing a byte, and a daemon
// restarted from the journal, with a duplicate shard record appended to it,
// serves the same list, status and report bytes (its /metrics is recorded
// too: the counters start over, the journal gauges do not).
func TestDrainedCampaignsMatchGolden(t *testing.T) {
	clock := func() time.Time { return time.Unix(1_700_000_000, 0) }
	dir := t.TempDir()
	opts := ServerOptions{StateDir: dir, LeaseTimeout: time.Minute, Clock: clock}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	pool := []string{"povray", "gobmk", "hmmer", "libquantum", "sjeng"}
	var ids []string
	campaigns := map[string]Campaign{}
	for i := range 16 {
		c, err := NewCampaign("fig10", true, uint64(i+1), pool, "", 5)
		if err != nil {
			t.Fatal(err)
		}
		id, err := srv.SubmitCampaign(c)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		campaigns[id] = c
	}

	do := func(h http.Handler, method, target string, body []byte) (int, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	shardBody := func(id string, idx int) []byte {
		t.Helper()
		b, err := json.Marshal(goldenShard(t, campaigns[id], idx))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	h := srv.Handler()
	for {
		code, body := do(h, http.MethodPost, "/lease", []byte(`{"worker":"golden"}`))
		if code == http.StatusGone {
			break
		}
		var wu WorkUnit
		if code != http.StatusOK || json.Unmarshal(body, &wu) != nil {
			t.Fatalf("lease: HTTP %d %s", code, body)
		}
		if code, body := do(h, http.MethodPost, "/submit?lease="+wu.LeaseID+"&campaign="+wu.CampaignID,
			shardBody(wu.CampaignID, wu.ShardIndex)); code != http.StatusOK {
			t.Fatalf("submit: HTTP %d %s", code, body)
		}
	}

	var got bytes.Buffer
	record := func(h http.Handler, method, target string, body []byte) {
		t.Helper()
		code, resp := do(h, method, target, body)
		fmt.Fprintf(&got, "%s %s %d\n%s", method, target, code, resp)
	}
	readCampaigns := func(h http.Handler) {
		record(h, http.MethodGet, "/campaigns", nil)
		for _, id := range ids {
			record(h, http.MethodGet, "/campaigns/"+id, nil)
			record(h, http.MethodGet, "/campaigns/"+id+"/report", nil)
		}
	}
	readCampaigns(h)
	drained := bytes.Clone(got.Bytes())
	record(h, http.MethodGet, "/metrics", nil)
	record(h, http.MethodPost, "/submit?campaign="+ids[0], shardBody(ids[0], 0))
	record(h, http.MethodGet, "/campaigns/"+ids[0], nil)
	record(h, http.MethodGet, "/metrics", nil)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	dup := goldenShard(t, campaigns[ids[1]], 2)
	if err := j.Append(JournalRecord{Kind: recordShard, Campaign: ids[1], Shard: &dup}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	srv2, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	mark := got.Len()
	readCampaigns(srv2.Handler())
	if !bytes.Equal(got.Bytes()[mark:], drained) {
		t.Fatal("the restarted daemon serves campaigns differently from the one that drained them")
	}
	got.Truncate(mark)
	record(srv2.Handler(), http.MethodGet, "/metrics", nil)

	path := filepath.Join("testdata", "drained.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, %s has %d", len(gl), path, len(wl))
	}
}

// goldenShard is stubShard with outcomes a report reduction has something
// to fold: each combo names its benchmarks and carries three candidates
// whose user cycles are a hash of the campaign, combo, candidate and
// process, so every campaign's report differs from every other's.
func goldenShard(t *testing.T, c Campaign, idx int) experiments.Shard {
	t.Helper()
	sh := stubShard(t, c, idx)
	combos := experiments.Combinations(len(sh.Pool), sh.MixSize)
	for k := range sh.Outcomes {
		combo := combos[sh.ComboLo+k]
		o := &sh.Outcomes[k]
		for _, i := range combo {
			o.Names = append(o.Names, sh.Pool[i])
		}
		for cand := range 3 {
			r := experiments.MixResult{WallCycles: 1}
			for p := range combo {
				h := fnv.New64a()
				fmt.Fprintf(h, "%s/%d/%d/%d", c.ConfigHash, sh.ComboLo+k, cand, p)
				r.UserCycles = append(r.UserCycles, 1000+h.Sum64()%9000)
			}
			o.Candidates = append(o.Candidates, r)
		}
		o.ChosenIdx = (sh.ComboLo + k) % 3
	}
	return sh
}
