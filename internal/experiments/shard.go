package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"symbiosched/internal/alloc"
	"symbiosched/internal/workload"
)

// This file implements the cross-machine shard protocol: a full figure sweep
// is a set of independent mixes, so its combination space can be cut into
// deterministic contiguous ranges, each range run on a different machine
// with `symbiosched -shard i/N -out f.json`, the resulting shard files
// shipped anywhere, and `-merge 'glob'` reduced into the same
// ImprovementReport the single-process sweep produces — bit-identical,
// because the merge feeds the exact outcomes through the exact reduction
// Sweep itself uses (Sweep is the degenerate merge of one full-range shard).
//
// Shard files are JSON: MixOutcome carries only strings and integers (user
// times are uint64 cycle counts; Go's encoder/decoder round-trips full
// 64-bit integers losslessly), and every improvement percentage is computed
// at merge time from those integers, so serialization introduces no
// floating-point drift. The header carries FNV-1a fingerprints of the
// benchmark pool and of the simulation parameters; merging shards produced
// by configurations that could disagree on results is refused. Execution
// parameters (worker count, shard geometry, progress callbacks) are
// deliberately outside the fingerprint — shards from machines with
// different core counts merge freely, which is the point.

// ShardFormat is the shard file format version; bumped on incompatible
// layout changes.
const ShardFormat = 1

// Sentinel error classes for the shard protocol. Every rejection from
// ReadShard, ShardMerger.Add and MergeShards wraps exactly one of these, so
// callers (the coordinator in particular) can classify a failure with
// errors.Is without parsing messages.
var (
	// ErrShardFormat marks a shard whose format version this build cannot
	// read (or a file that is not a shard at all).
	ErrShardFormat = errors.New("shard format mismatch")
	// ErrShardCampaign marks a shard from a different campaign: pool hash,
	// config hash, policy, mix size, virtualization flag or combo-space
	// size disagree with the shards already accepted.
	ErrShardCampaign = errors.New("shard campaign mismatch")
	// ErrShardTiling marks ranges that cannot tile the combo space:
	// duplicates, overlaps, out-of-bounds ranges, or — at report time —
	// gaps left by missing shards.
	ErrShardTiling = errors.New("shard ranges do not tile")
	// ErrShardTruncated marks a shard whose outcome list does not match
	// its declared combo range.
	ErrShardTruncated = errors.New("shard outcomes truncated")
	// ErrShardOutcome marks a shard carrying an outcome the report
	// reduction cannot fold: a benchmark outside the campaign's pool, a
	// chosen index outside the candidate list, or a candidate with fewer
	// user-cycle counts than the mix has benchmarks.
	ErrShardOutcome = errors.New("shard outcome malformed")
)

// Shard is one machine's slice of a sweep: the combos in [ComboLo, ComboHi)
// of the lexicographic mixSize-combination enumeration of Pool, with a
// header binding it to the campaign that produced it.
type Shard struct {
	Format      int      `json:"format"`
	PoolHash    string   `json:"pool_hash"`   // FNV-1a of the pool names
	ConfigHash  string   `json:"config_hash"` // FNV-1a of the simulation parameters
	Pool        []string `json:"pool"`
	Policy      string   `json:"policy"`
	MixSize     int      `json:"mix_size"`
	Virtual     bool     `json:"virtual"`
	TotalCombos int      `json:"total_combos"`
	ComboLo     int      `json:"combo_lo"`
	ComboHi     int      `json:"combo_hi"`
	Index       int      `json:"shard_index"`
	Total       int      `json:"shard_total"`
	// ElapsedSeconds is the wall time the shard's simulation took — merge
	// reports use it to spot load imbalance across machines.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Worker and Attempt are lease metadata stamped by the distributed
	// coordinator (see internal/coordctl): which worker produced the shard
	// and on which dispatch attempt. Pure provenance — both are execution
	// parameters, excluded from campaign validation, and zero for shards
	// produced by the manual -shard CLI path.
	Worker   string       `json:"worker,omitempty"`
	Attempt  int          `json:"attempt,omitempty"`
	Outcomes []MixOutcome `json:"outcomes"`
}

// Combos returns the number of mixes in the shard.
func (s Shard) Combos() int { return s.ComboHi - s.ComboLo }

func hashHex(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// PoolHash returns the fingerprint a shard header carries for this
// benchmark pool; the coordinator uses it to validate worker submissions.
func PoolHash(names []string) string { return hashHex(names...) }

// PoolHashProfiles is PoolHash over a resolved pool: synthetic profiles
// contribute their name (identical to PoolHash of the names, so existing
// campaign fingerprints are unchanged), while trace-driven profiles
// contribute name#fingerprint — two trace pools that reuse a file name hash
// differently, so their shards can never merge.
func PoolHashProfiles(pool []workload.Profile) string {
	parts := make([]string, len(pool))
	for i, p := range pool {
		parts[i] = p.Name
		if p.Fingerprint != "" {
			parts[i] += "#" + p.Fingerprint
		}
	}
	return hashHex(parts...)
}

// CampaignHash returns the fingerprint of this configuration's
// simulation-affecting parameters — the value shard headers carry as
// ConfigHash. Two builds that disagree on it would not produce comparable
// outcomes and must not be merged.
func (c Config) CampaignHash() string { return hashHex(c.campaignFingerprint()) }

// campaignFingerprint canonicalises every Config field that shapes
// simulation results. Workers, the shard geometry and OnTask are execution
// parameters and excluded on purpose.
func (c Config) campaignFingerprint() string {
	sig := "nil"
	if c.Signature != nil {
		sig = fmt.Sprintf("%+v", *c.Signature)
	}
	return fmt.Sprintf("machdiv=%d instrdiv=%d quantum=%d monitor=%d horizon=%d seed=%d sig=%s l2replace=%d candlimit=%d samplerate=%d",
		c.MachineDiv, c.InstrDiv, c.Quantum, c.MonitorPeriod, c.Phase1Horizon,
		c.Seed, sig, c.L2Replace, c.CandidateLimit, c.SampleRate)
}

// ShardRange returns the combo range [lo,hi) of shard idx of total over a
// space of n combos: contiguous, exhaustive, and balanced to within one
// combo (the standard idx·n/total split).
func ShardRange(n, idx, total int) (lo, hi int) {
	return idx * n / total, (idx + 1) * n / total
}

// SweepShard runs this configuration's shard (ShardIndex of ShardTotal;
// both zero means the whole space as one shard) of the sweep and returns it
// with a populated header, ready for WriteShard. The outcomes are the same
// values Sweep would compute for those combos.
func (c Config) SweepShard(pool []workload.Profile, policy alloc.Policy, mixSize int, v *VirtSpec) (Shard, error) {
	idx, total := c.ShardIndex, c.ShardTotal
	if total == 0 && idx == 0 {
		total = 1
	}
	if total < 1 || idx < 0 || idx >= total {
		return Shard{}, fmt.Errorf("experiments: invalid shard %d/%d", idx, total)
	}
	combos := Combinations(len(pool), mixSize)
	lo, hi := ShardRange(len(combos), idx, total)
	start := time.Now()
	outcomes := c.sweepOutcomes(pool, policy, mixSize, v, lo, hi)
	return Shard{
		Format:         ShardFormat,
		PoolHash:       PoolHashProfiles(pool),
		ConfigHash:     hashHex(c.campaignFingerprint()),
		Pool:           poolNames(pool),
		Policy:         policy.Name(),
		MixSize:        mixSize,
		Virtual:        v != nil,
		TotalCombos:    len(combos),
		ComboLo:        lo,
		ComboHi:        hi,
		Index:          idx,
		Total:          total,
		ElapsedSeconds: time.Since(start).Seconds(),
		Outcomes:       outcomes,
	}, nil
}

// WriteShard serialises the shard as indented JSON at path.
func WriteShard(path string, s Shard) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: marshal shard: %w", err)
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// ReadShard deserialises a shard file and checks its format version.
func ReadShard(path string) (Shard, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Shard{}, err
	}
	s, err := decodeShard(data)
	if err != nil {
		return Shard{}, fmt.Errorf("experiments: %s: %w", path, err)
	}
	return s, nil
}

// decodeShard is ReadShard over a file's bytes.
func decodeShard(data []byte) (Shard, error) {
	var s Shard
	if err := json.Unmarshal(data, &s); err != nil {
		return Shard{}, fmt.Errorf("not a shard file (%v): %w", err, ErrShardFormat)
	}
	if s.Format != ShardFormat {
		return Shard{}, fmt.Errorf("shard format %d, want %d: %w", s.Format, ShardFormat, ErrShardFormat)
	}
	return s, nil
}

// ShardMerger folds shards into a campaign report one at a time, in any
// arrival order, with the same validation MergeShards applies in bulk. It
// is the streaming half of the protocol: the distributed coordinator Adds
// each accepted submission as it lands and serves Partial() in a status,
// and once Complete() the Report() is — by construction — the same
// reduction a single-process Sweep performs. Not safe for concurrent use;
// callers serialize Adds.
//
// It keeps the campaign header once and, per accepted shard, only its
// range and outcomes, sorted by range, so an Add costs a binary search and
// a report reads the outcomes in combo order without sorting.
type ShardMerger struct {
	ref     Shard       // campaign header of the first accepted shard, outcomes dropped
	spans   []shardSpan // accepted ranges, sorted by (lo, hi)
	covered int
}

// shardSpan is one accepted shard: its combo range [lo, hi) and outcomes.
//
// Accepted non-empty ranges are disjoint, and an empty range never lies
// strictly inside a non-empty one (Add rejects both as overlaps), so in
// (lo, hi) order the hi bounds are sorted too. The spans that could overlap
// a range [lo, hi) therefore start at the first span whose hi exceeds lo;
// when that one starts at or after hi, nothing overlaps, and that index is
// where [lo, hi) goes.
type shardSpan struct {
	lo, hi   int
	outcomes []MixOutcome
}

// NewShardMerger returns an empty merger; the first Add binds it to that
// shard's campaign.
func NewShardMerger() *ShardMerger { return &ShardMerger{} }

// CheckOutcomes rejects, wrapping ErrShardOutcome, a shard whose outcomes
// the report reduction could not fold. Names must come from the merger's
// pool: the first accepted shard's, or s's own before any is accepted.
// ChosenIdx must index a non-empty candidate list, and every candidate
// must carry a user-cycle count per name. A zero-valued outcome passes.
// Add runs this check; the coordinator also runs it before journaling.
func (m *ShardMerger) CheckOutcomes(s Shard) error {
	pool := s.Pool
	if len(m.spans) > 0 {
		pool = m.ref.Pool
	}
	for k, o := range s.Outcomes {
		combo := s.ComboLo + k
		for _, name := range o.Names {
			if !slices.Contains(pool, name) {
				return fmt.Errorf("experiments: combo %d names %q, not in the pool: %w", combo, name, ErrShardOutcome)
			}
		}
		if len(o.Candidates) > 0 && (o.ChosenIdx < 0 || o.ChosenIdx >= len(o.Candidates)) {
			return fmt.Errorf("experiments: combo %d chose candidate %d of %d: %w", combo, o.ChosenIdx, len(o.Candidates), ErrShardOutcome)
		}
		for c, cand := range o.Candidates {
			if len(cand.UserCycles) < len(o.Names) {
				return fmt.Errorf("experiments: combo %d candidate %d has %d user-cycle counts for %d benchmarks: %w",
					combo, c, len(cand.UserCycles), len(o.Names), ErrShardOutcome)
			}
		}
	}
	return nil
}

// Add validates the shard against the campaign and the ranges already
// folded, then accepts it. Rejections wrap ErrShardFormat,
// ErrShardCampaign, ErrShardTiling, ErrShardTruncated or ErrShardOutcome
// and leave the merger unchanged — a bad shard can always be retried or
// replaced.
func (m *ShardMerger) Add(s Shard) error {
	if s.Format != ShardFormat {
		return fmt.Errorf("experiments: shard format %d, want %d: %w", s.Format, ShardFormat, ErrShardFormat)
	}
	if len(m.spans) > 0 {
		ref := m.ref
		switch {
		case s.PoolHash != ref.PoolHash:
			return fmt.Errorf("experiments: pool hash %s vs %s: %w", s.PoolHash, ref.PoolHash, ErrShardCampaign)
		case s.ConfigHash != ref.ConfigHash:
			return fmt.Errorf("experiments: config hash %s vs %s: %w", s.ConfigHash, ref.ConfigHash, ErrShardCampaign)
		case s.Policy != ref.Policy, s.MixSize != ref.MixSize, s.Virtual != ref.Virtual, s.TotalCombos != ref.TotalCombos:
			return fmt.Errorf("experiments: campaign %s/%d/%v/%d vs %s/%d/%v/%d: %w",
				s.Policy, s.MixSize, s.Virtual, s.TotalCombos, ref.Policy, ref.MixSize, ref.Virtual, ref.TotalCombos, ErrShardCampaign)
		}
	}
	if s.ComboHi < s.ComboLo || s.ComboLo < 0 || s.ComboHi > s.TotalCombos {
		return fmt.Errorf("experiments: shard range [%d,%d) out of bounds of %d combos: %w", s.ComboLo, s.ComboHi, s.TotalCombos, ErrShardTiling)
	}
	i := sort.Search(len(m.spans), func(i int) bool { return m.spans[i].hi > s.ComboLo })
	if i < len(m.spans) && m.spans[i].lo < s.ComboHi {
		a := m.spans[i]
		return fmt.Errorf("experiments: shard range [%d,%d) overlaps accepted [%d,%d): %w", s.ComboLo, s.ComboHi, a.lo, a.hi, ErrShardTiling)
	}
	if len(s.Outcomes) != s.Combos() {
		return fmt.Errorf("experiments: shard [%d,%d) has %d outcomes, want %d: %w", s.ComboLo, s.ComboHi, len(s.Outcomes), s.Combos(), ErrShardTruncated)
	}
	if err := m.CheckOutcomes(s); err != nil {
		return err
	}
	if len(m.spans) == 0 {
		m.ref = s
		m.ref.Outcomes = nil
	}
	m.spans = slices.Insert(m.spans, i, shardSpan{lo: s.ComboLo, hi: s.ComboHi, outcomes: s.Outcomes})
	m.covered += s.Combos()
	return nil
}

// Accepted returns how many shards have been folded in.
func (m *ShardMerger) Accepted() int { return len(m.spans) }

// Covered returns how many combos the accepted shards span.
func (m *ShardMerger) Covered() int { return m.covered }

// Total returns the campaign's combo-space size (0 before the first Add).
func (m *ShardMerger) Total() int {
	if len(m.spans) == 0 {
		return 0
	}
	return m.ref.TotalCombos
}

// Complete reports whether the accepted shards tile the whole combo space.
// Overlaps are rejected at Add, so covered == total implies an exact tiling.
func (m *ShardMerger) Complete() bool {
	return len(m.spans) > 0 && m.covered == m.ref.TotalCombos
}

// Partial reduces whatever has been accepted so far into an improvement
// report over the covered combos — the streaming view a status serves while
// a campaign is in flight. Mixes reflects the covered count, so a partial
// report is visibly partial. Once Complete, Partial is the final report.
func (m *ShardMerger) Partial() ImprovementReport {
	if len(m.spans) == 0 {
		return ImprovementReport{}
	}
	outcomes := make([]MixOutcome, 0, m.covered)
	for _, sp := range m.spans {
		outcomes = append(outcomes, sp.outcomes...)
	}
	return reduceOutcomes(m.ref.Pool, m.ref.Policy, m.ref.Virtual, m.ref.MixSize, m.covered, outcomes)
}

// Report returns the campaign's final report, or an ErrShardTiling-wrapped
// error naming the first missing combo while shards are still outstanding.
func (m *ShardMerger) Report() (ImprovementReport, error) {
	if len(m.spans) == 0 {
		return ImprovementReport{}, fmt.Errorf("experiments: no shards to merge")
	}
	if !m.Complete() {
		next := 0
		for _, sp := range m.spans {
			if sp.lo != next {
				break
			}
			next = sp.hi
		}
		return ImprovementReport{}, fmt.Errorf("experiments: shards cover %d of %d combos (combo %d missing): %w",
			m.covered, m.ref.TotalCombos, next, ErrShardTiling)
	}
	return m.Partial(), nil
}

// MergeShards validates that the shards belong to one campaign and exactly
// tile its combination space, then reduces them — through the same
// reduction Sweep uses — into the sweep's ImprovementReport. The input
// order is irrelevant (shards are sorted by range); duplicates, gaps,
// overlaps, truncated outcome lists and cross-campaign mixtures are all
// rejected with a diagnostic wrapping the matching sentinel error. It is
// the batch form of ShardMerger, which the streaming coordinator uses.
func MergeShards(shards []Shard) (ImprovementReport, error) {
	if len(shards) == 0 {
		return ImprovementReport{}, fmt.Errorf("experiments: no shards to merge")
	}
	m := NewShardMerger()
	for _, s := range shards {
		if err := m.Add(s); err != nil {
			return ImprovementReport{}, err
		}
	}
	return m.Report()
}

// MergeShardFiles reads every file matching the glob and merges them. It
// returns the shards alongside the report so callers can print per-shard
// provenance (ranges, machines' elapsed times).
func MergeShardFiles(glob string) (ImprovementReport, []Shard, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return ImprovementReport{}, nil, err
	}
	if len(paths) == 0 {
		return ImprovementReport{}, nil, fmt.Errorf("experiments: no files match %q", glob)
	}
	sort.Strings(paths)
	shards := make([]Shard, 0, len(paths))
	for _, p := range paths {
		s, err := ReadShard(p)
		if err != nil {
			return ImprovementReport{}, nil, err
		}
		shards = append(shards, s)
	}
	report, err := MergeShards(shards)
	if err != nil {
		return ImprovementReport{}, nil, err
	}
	return report, shards, nil
}

// SweepSpec names one of the figure sweeps for the sharding CLI: the pool,
// policy and virtualization layer that Figure10/11/12 pass to Sweep.
type SweepSpec struct {
	Figure  string
	Pool    []workload.Profile
	Policy  alloc.Policy
	MixSize int
	Virt    *VirtSpec
}

// SweepSpecFor returns the sweep behind a figure name ("fig10", "fig11",
// "fig12"), matching the corresponding Figure function exactly.
func SweepSpecFor(figure string) (SweepSpec, error) {
	switch strings.ToLower(figure) {
	case "fig10":
		return SweepSpec{Figure: "fig10", Pool: workload.SPEC2006(), Policy: alloc.WeightedInterferenceGraph{}, MixSize: 4}, nil
	case "fig11":
		return SweepSpec{Figure: "fig11", Pool: workload.SPEC2006(), Policy: alloc.WeightedInterferenceGraph{}, MixSize: 4, Virt: DefaultVirt()}, nil
	case "fig12":
		return SweepSpec{Figure: "fig12", Pool: workload.PARSEC(), Policy: alloc.TwoPhase{}, MixSize: 4}, nil
	}
	return SweepSpec{}, fmt.Errorf("experiments: no sharded sweep for %q (want fig10, fig11 or fig12)", figure)
}

// RunShard executes the spec's shard under c and returns it.
func (c Config) RunShard(spec SweepSpec) (Shard, error) {
	return c.SweepShard(spec.Pool, spec.Policy, spec.MixSize, spec.Virt)
}
