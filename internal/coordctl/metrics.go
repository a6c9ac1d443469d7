package coordctl

import (
	"fmt"
	"io"
	"time"
)

// Counters are the coordinator's monotonic event counters, exposed in
// Prometheus text format at /metrics and programmatically via
// Server.CountersSnapshot so tests and the load-smoke harness can reconcile
// them against the journal. All fields are guarded by the server mutex — the
// handler path is already serialized, so plain ints are enough.
type Counters struct {
	LeasesGranted      int64 // work units handed to workers (== sum of shard attempts)
	EmptyPolls         int64 // lease requests answered 204 (nothing leasable)
	Redispatches       int64 // expired leases sent back to pending
	SubmitsAccepted    int64 // shard submissions validated and merged
	SubmitsSuperseded  int64 // duplicate submissions discarded (straggler finished late)
	SubmitsRejected    int64 // submissions that failed validation (422)
	ShardsFailed       int64 // shards that exhausted their attempt budget
	AuthFailures       int64 // requests refused for a missing or wrong bearer token
	TraceRequests      int64 // corpus fetches served at /trace/<fingerprint>
	CampaignsSubmitted int64
	CampaignsDone      int64
	CampaignsFailed    int64
	CampaignsCancelled int64
}

// CountersSnapshot returns a copy of the server's counters.
func (s *Server) CountersSnapshot() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctr
}

// counterRow is one /metrics line: name, help, value.
type counterRow struct {
	name, help string
	value      int64
}

// writeMetrics renders the Prometheus text exposition. Caller holds the lock.
func (s *Server) writeMetrics(w io.Writer, now time.Time) {
	rows := []counterRow{
		{"coordinator_leases_granted_total", "Work units handed to workers.", s.ctr.LeasesGranted},
		{"coordinator_lease_empty_polls_total", "Lease requests answered with nothing leasable (204).", s.ctr.EmptyPolls},
		{"coordinator_redispatches_total", "Expired leases returned to pending for another worker.", s.ctr.Redispatches},
		{"coordinator_submits_accepted_total", "Shard submissions validated and folded into a merge.", s.ctr.SubmitsAccepted},
		{"coordinator_submits_superseded_total", "Duplicate shard submissions discarded.", s.ctr.SubmitsSuperseded},
		{"coordinator_submits_rejected_total", "Shard submissions that failed validation.", s.ctr.SubmitsRejected},
		{"coordinator_shards_failed_total", "Shards that exhausted their dispatch attempts.", s.ctr.ShardsFailed},
		{"coordinator_auth_failures_total", "Requests refused for a missing or invalid bearer token.", s.ctr.AuthFailures},
		{"coordinator_trace_requests_total", "Corpus trace fetches served.", s.ctr.TraceRequests},
		{"coordinator_campaigns_submitted_total", "Campaigns accepted for scheduling.", s.ctr.CampaignsSubmitted},
		{"coordinator_campaigns_done_total", "Campaigns that completed with a full merge.", s.ctr.CampaignsDone},
		{"coordinator_campaigns_failed_total", "Campaigns that failed permanently.", s.ctr.CampaignsFailed},
		{"coordinator_campaigns_cancelled_total", "Campaigns cancelled via the API.", s.ctr.CampaignsCancelled},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", r.name, r.help, r.name, r.name, r.value)
	}

	fmt.Fprintf(w, "# HELP coordinator_uptime_seconds Seconds since the coordinator started.\n# TYPE coordinator_uptime_seconds gauge\ncoordinator_uptime_seconds %.3f\n",
		now.Sub(s.start).Seconds())
	if s.journal != nil {
		fmt.Fprintf(w, "# HELP coordinator_journal_bytes Size of the write-ahead journal.\n# TYPE coordinator_journal_bytes gauge\ncoordinator_journal_bytes %d\n", s.journal.Size())
		fmt.Fprintf(w, "# HELP coordinator_journal_records Records in the write-ahead journal.\n# TYPE coordinator_journal_records gauge\ncoordinator_journal_records %d\n", s.journal.Records())
	}

	// Per-campaign progress: shard-state gauge vectors (states with no
	// shards omitted) plus combo coverage, in stable campaign and state
	// order so successive scrapes diff cleanly.
	fmt.Fprintf(w, "# HELP coordinator_campaign_shards Shards per campaign by lease state.\n# TYPE coordinator_campaign_shards gauge\n")
	for _, id := range s.order {
		cs := s.campaigns[id]
		for _, st := range statesByName {
			if n := cs.table.count(st); n > 0 {
				fmt.Fprintf(w, "coordinator_campaign_shards{campaign=%q,figure=%q,state=%q} %d\n", id, cs.c.Figure, st, n)
			}
		}
	}
	fmt.Fprintf(w, "# HELP coordinator_campaign_combos_covered Combos merged so far per campaign.\n# TYPE coordinator_campaign_combos_covered gauge\n")
	for _, id := range s.order {
		fmt.Fprintf(w, "coordinator_campaign_combos_covered{campaign=%q} %d\n", id, s.campaigns[id].covered)
	}
	fmt.Fprintf(w, "# HELP coordinator_campaign_combos_total Size of each campaign's combination space.\n# TYPE coordinator_campaign_combos_total gauge\n")
	for _, id := range s.order {
		fmt.Fprintf(w, "coordinator_campaign_combos_total{campaign=%q} %d\n", id, s.campaigns[id].combos)
	}
	fmt.Fprintf(w, "# HELP coordinator_campaign_state Campaign lifecycle state (1 = the labelled state is current).\n# TYPE coordinator_campaign_state gauge\n")
	for _, id := range s.order {
		fmt.Fprintf(w, "coordinator_campaign_state{campaign=%q,state=%q} 1\n", id, s.campaigns[id].state)
	}
}
