package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"symbiosched/internal/experiments"
)

// TestProgressRateCountsCandidates pins the live line's rate to every
// completed task: a study with no phase 1 (Fig 3's pairwise runs) completes
// only candidate tasks and must not read as stalled.
func TestProgressRateCountsCandidates(t *testing.T) {
	var buf bytes.Buffer
	p := &progress{w: &buf, workers: 1, start: time.Now().Add(-2 * time.Second)}
	for i := 0; i < 4; i++ {
		p.onTask(experiments.TaskInfo{Kind: experiments.TaskCandidate, Mix: i, Duration: time.Millisecond})
	}
	line, _, _ := strings.Cut(buf.String(), "\n")
	var phase1, cands, steals int
	var rate float64
	if _, err := fmt.Sscanf(line, "progress: %d mixes profiled, %d candidates done, %f tasks/sec, %d stolen",
		&phase1, &cands, &rate, &steals); err != nil {
		t.Fatalf("unparsable progress line %q: %v", line, err)
	}
	if phase1 != 0 || cands != 1 {
		t.Fatalf("line %q counts %d phase-1 and %d candidate tasks, want 0 and 1", line, phase1, cands)
	}
	if rate <= 0 {
		t.Fatalf("line %q reads rate %g with candidate tasks completing", line, rate)
	}

	buf.Reset()
	p.summary()
	if !strings.Contains(buf.String(), "total 0 phase-1 + 4 candidate tasks") {
		t.Fatalf("summary %q does not total the four candidate tasks", buf.String())
	}
}
