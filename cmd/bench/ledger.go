package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"sort"
	"time"
)

// Report is the on-disk ledger: one file, many labelled entries. Entries stay
// raw JSON, so appending never rewrites an entry recorded by an older build
// of this tool, whatever fields it carried; only the entries read are decoded.
type Report struct {
	Benchmark string            `json:"benchmark"`
	Protocol  string            `json:"protocol"`
	Entries   []json.RawMessage `json:"entries"`
}

// Entry is one measured build. The sweep keeps the top-level fields it has
// carried since the first entry, so the seed-to-now series is one column;
// every other layer records Points.
type Entry struct {
	Label      string    `json:"label"`
	Date       string    `json:"date"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Reps       []float64 `json:"rep_seconds,omitempty"`
	MinSeconds float64   `json:"min_seconds,omitempty"`
	// Determinism checksum: the experiment's own outputs. Entries whose
	// checksums differ are not comparable.
	AvgImprovementPct float64 `json:"avg_improvement_pct,omitempty"`
	MaxImprovementPct float64 `json:"max_improvement_pct,omitempty"`
	Note              string  `json:"note,omitempty"`
	// RepsMP1/MinSecondsMP1 record the same sweep pinned to GOMAXPROCS=1
	// (-mp1), so single-core and native-parallel numbers share one entry.
	RepsMP1       []float64 `json:"rep_seconds_mp1,omitempty"`
	MinSecondsMP1 float64   `json:"min_seconds_mp1,omitempty"`
	Points        []Point   `json:"points,omitempty"`
}

// Point is one measured cell of a layer: Samples timed samples of one
// computation, in µs. Checksum digests what every sample computed; points
// whose checksums differ ran different computations and are not compared.
// Info holds derived figures that are recorded but never gated.
type Point struct {
	Layer     string             `json:"layer"`
	Name      string             `json:"name"`
	Samples   int                `json:"samples"`
	MinMicros float64            `json:"min_micros"`
	P50Micros float64            `json:"p50_micros"`
	P99Micros float64            `json:"p99_micros"`
	Checksum  string             `json:"checksum,omitempty"`
	Info      map[string]float64 `json:"info,omitempty"`
}

func (p Point) String() string {
	return fmt.Sprintf("%-5s %-34s p50 %11.3fµs p99 %11.3fµs  %s %v", p.Layer, p.Name, p.P50Micros, p.P99Micros, p.Checksum, p.Info)
}

// A trial is one sample. Calling it sets up untimed state and returns the
// body to time and a digest of what the body computed, also untimed.
type trial func() (body func(), sum func() string)

// sample runs reps trials and returns each body's time in µs, in run order,
// with the checksum they all produced. A sample whose checksum differs from
// the first sample's is a determinism failure and aborts the run: no point
// is recorded for a computation that does not repeat.
func sample(what string, reps int, t trial) ([]float64, string) {
	us := make([]float64, reps)
	var first string
	for i := range us {
		body, sum := t()
		start := time.Now()
		body()
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		if s := sum(); i == 0 {
			first = s
		} else if s != first {
			fatal(fmt.Errorf("%s: sample %d checksum %s differs from the first sample's %s", what, i+1, s, first))
		}
	}
	return us, first
}

// measure samples one point.
func measure(layer, name string, reps int, t trial) Point {
	us, sum := sample(layer+" "+name, reps, t)
	sort.Float64s(us)
	p50, p99 := percentiles(us)
	return Point{Layer: layer, Name: name, Samples: reps, MinMicros: us[0], P50Micros: p50, P99Micros: p99, Checksum: sum}
}

// percentiles reads p50 and p99 (nearest rank) off sorted samples.
func percentiles(sorted []float64) (p50, p99 float64) {
	if len(sorted) == 0 {
		return 0, 0
	}
	return sorted[len(sorted)/2], sorted[(99*len(sorted)+99)/100-1]
}

// digest is FNV-1a over little-endian 64-bit words, printed as 16 hex
// digits: the form of every point checksum in the ledger.
type digest struct {
	h hash.Hash64
	b [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) put(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.b[:], v)
		d.h.Write(d.b[:])
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// compare gates cur against ref, the baseline's newest entry, and prints a
// verdict for the sweep and for every measured layer to w. Every checksum
// must match exactly, and a p50 whose baseline is at or above its layer's
// floor may be at most tolerance slower (the sweep gates its min_seconds).
// A measurement the baseline lacks fails: a gate that compares nothing
// must not pass. So does a baseline point missing from a layer this run
// measured; layers the run did not measure are skipped.
func compare(w io.Writer, ref, cur Entry, sweep bool, tolerance float64) bool {
	ok := true
	verdict := func(what string, failed bool, detail string, a ...any) {
		v := "ok"
		if failed {
			v, ok = "FAIL", false
		}
		fmt.Fprintf(w, "bench: %s %s: "+detail+"\n", append([]any{what, v}, a...)...)
	}
	if sweep {
		verdict("sweep", len(ref.Reps) == 0 || ref.AvgImprovementPct != cur.AvgImprovementPct ||
			ref.MaxImprovementPct != cur.MaxImprovementPct || cur.MinSeconds > ref.MinSeconds*(1+tolerance),
			"min %.3fs vs baseline %q %.3fs (%+.1f%%, tolerance %.0f%%), checksum avg/max %v/%v vs %v/%v",
			cur.MinSeconds, ref.Label, ref.MinSeconds, 100*(cur.MinSeconds/ref.MinSeconds-1), 100*tolerance,
			cur.AvgImprovementPct, cur.MaxImprovementPct, ref.AvgImprovementPct, ref.MaxImprovementPct)
	}

	base, seen := map[string]Point{}, map[string]bool{}
	for _, pt := range ref.Points {
		base[pt.Layer+" "+pt.Name] = pt
	}
	var order []string
	n, failed, gated := map[string]int{}, map[string]int{}, map[string]int{}
	for _, pt := range cur.Points {
		if n[pt.Layer]++; n[pt.Layer] == 1 {
			order = append(order, pt.Layer)
		}
		seen[pt.Layer+" "+pt.Name] = true
		b, found := base[pt.Layer+" "+pt.Name]
		gate := found && b.P50Micros >= layers[pt.Layer].floor
		if gate {
			gated[pt.Layer]++
		}
		var why string
		switch {
		case !found:
			why = fmt.Sprintf("baseline %q has no such point, record a new baseline", ref.Label)
		case b.Checksum != pt.Checksum:
			why = fmt.Sprintf("checksum %s, baseline %s: the computation changed, record a new baseline", pt.Checksum, b.Checksum)
		case gate && pt.P50Micros > b.P50Micros*(1+tolerance):
			why = fmt.Sprintf("REGRESSION: p50 %.1fµs vs baseline %.1fµs (%+.1f%%)", pt.P50Micros, b.P50Micros, 100*(pt.P50Micros/b.P50Micros-1))
		default:
			continue
		}
		failed[pt.Layer]++
		fmt.Fprintf(w, "bench: %s %s: %s\n", pt.Layer, pt.Name, why)
	}
	for _, b := range ref.Points {
		if n[b.Layer] > 0 && !seen[b.Layer+" "+b.Name] {
			failed[b.Layer]++
			fmt.Fprintf(w, "bench: %s %s: missing from this run but in baseline %q, record a new baseline\n", b.Layer, b.Name, ref.Label)
		}
	}
	for _, l := range order {
		verdict(l, failed[l] > 0, "%d points vs baseline %q, %d failed, %d latency-gated (tolerance %.0f%%)",
			n[l], ref.Label, failed[l], gated[l], 100*tolerance)
	}
	return ok
}

// load reads a ledger; a missing file is an empty one.
func load(path string) (Report, error) {
	rpt := Report{
		Benchmark: "Figure10 sweep: 6-benchmark SPEC pool, 4-per-mix, Quick scale, WIG policy",
		Protocol:  "N reps in one process, minimum wall time reported; run baseline and candidate builds in one quiet window and compare min_seconds",
	}
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return rpt, nil
	} else if err == nil {
		if err = json.Unmarshal(buf, &rpt); err != nil {
			err = fmt.Errorf("%s is not a bench ledger: %w", path, err)
		}
	}
	return rpt, err
}

// entry decodes entry i.
func (r Report) entry(i int) (Entry, error) {
	var e Entry
	if i < 0 || i >= len(r.Entries) {
		return e, fmt.Errorf("ledger has no entry %d", i)
	}
	err := json.Unmarshal(r.Entries[i], &e)
	return e, err
}

// sweepSummary describes e, a sweep entry just appended to rpt as its last
// entry: its speedup over the ledger's first entry, and whether its avg and
// max checksums equal those of the newest earlier entry that ran the sweep
// (the first entry predates the current checksum baseline). ok is false
// when no earlier entry ran the sweep.
func sweepSummary(rpt Report, e Entry) (summary string, ok bool) {
	first, err := rpt.entry(0)
	if err != nil {
		return "", false
	}
	for i := len(rpt.Entries) - 2; i >= 0; i-- {
		prev, err := rpt.entry(i)
		if err != nil || len(prev.Reps) == 0 {
			continue
		}
		same := prev.AvgImprovementPct == e.AvgImprovementPct && prev.MaxImprovementPct == e.MaxImprovementPct
		return fmt.Sprintf("sweep min %.3fs, speedup vs %s: %.2fx (same determinism checksums as %s: %v)",
			e.MinSeconds, first.Label, first.MinSeconds/e.MinSeconds, prev.Label, same), true
	}
	return "", false
}

// appendEntry appends e to the ledger at path, creating it if needed.
func appendEntry(path string, e Entry) (Report, error) {
	rpt, err := load(path)
	raw, merr := json.Marshal(e)
	if err = errors.Join(err, merr); err != nil {
		return rpt, err
	}
	rpt.Entries = append(rpt.Entries, raw)
	buf, err := json.MarshalIndent(rpt, "", "  ")
	if err != nil {
		return rpt, err
	}
	return rpt, os.WriteFile(path, append(buf, '\n'), 0o644)
}
