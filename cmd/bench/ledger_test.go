package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// An entry written by an older build carries fields no struct here declares
// (eager_ns_per_switch and speedup left SigPoint with the eager capture
// path); appending must leave every earlier byte of the ledger as it was.
func TestAppendKeepsHistory(t *testing.T) {
	old := `{
  "benchmark": "b",
  "protocol": "p",
  "entries": [
    {
      "label": "old",
      "eager_ns_per_switch": 1470.44140625
    }
  ]
}
`
	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := appendEntry(path, Entry{Label: "new", Points: []Point{{Layer: "alloc", Name: "x", Samples: 1}}}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept := strings.TrimSuffix(old, "\n  ]\n}\n"); !bytes.HasPrefix(got, []byte(kept+",\n")) {
		t.Fatalf("earlier entries rewritten:\n%s", got)
	}
	rpt, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := rpt.entry(1); err != nil || e.Label != "new" || len(e.Points) != 1 {
		t.Fatalf("appended entry reads back as %+v, %v", e, err)
	}
}

func TestCompare(t *testing.T) {
	base := Entry{Label: "base", Reps: []float64{6}, MinSeconds: 6, AvgImprovementPct: 6.4, MaxImprovementPct: 48.6,
		Points: []Point{
			{Layer: "alloc", Name: "sparse", P50Micros: 2000, Checksum: "a"},
			{Layer: "alloc", Name: "repair", P50Micros: 500, Checksum: "b"},
			{Layer: "sig", Name: "monitor", P50Micros: 5000, Checksum: "c"},
			{Layer: "coord", Name: "fleet", P50Micros: 1e5},
		}}
	with := func(edit func(e *Entry)) Entry {
		e := base
		e.Points = append([]Point(nil), base.Points...)
		edit(&e)
		return e
	}
	for _, tc := range []struct {
		name     string
		ref, cur Entry
		want     bool
	}{
		{"identical", base, base, true},
		{"checksum mismatch", base, with(func(e *Entry) { e.Points[1].Checksum = "x" }), false},
		{"p50 over tolerance above the floor", base, with(func(e *Entry) { e.Points[0].P50Micros = 2400 }), false},
		{"same slowdown under the floor", base, with(func(e *Entry) { e.Points[1].P50Micros = 600 }), true},
		{"coord never latency-gated", base, with(func(e *Entry) { e.Points[3].P50Micros = 1e7 }), true},
		{"missing layer", with(func(e *Entry) { e.Points = append(e.Points[:2], e.Points[3]) }), base, false},
		{"point gone from a measured layer", base, with(func(e *Entry) { e.Points = append(e.Points[:1], e.Points[2:]...) }), false},
		{"sweep checksum mismatch", base, with(func(e *Entry) { e.MaxImprovementPct = 48.5 }), false},
		{"sweep over tolerance", base, with(func(e *Entry) { e.MinSeconds = 7 }), false},
		{"baseline without a sweep", with(func(e *Entry) { e.Reps = nil }), base, false},
	} {
		var out bytes.Buffer
		if got := compare(&out, tc.ref, tc.cur, true, 0.15); got != tc.want {
			t.Errorf("%s: compare = %v, want %v\n%s", tc.name, got, tc.want, out.String())
		}
		for _, l := range []string{"sweep", "alloc", "sig", "coord"} {
			if !strings.Contains(out.String(), "bench: "+l+" ") {
				t.Errorf("%s: no verdict for %s:\n%s", tc.name, l, out.String())
			}
		}
	}

	// A baseline point gone from a measured layer names itself; the layers
	// a partial run did not measure are skipped, not failed.
	var out bytes.Buffer
	compare(&out, base, with(func(e *Entry) { e.Points = append(e.Points[:1], e.Points[2:]...) }), true, 0.15)
	if !strings.Contains(out.String(), "bench: alloc repair: missing from this run") {
		t.Errorf("vanished point not reported:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, base, with(func(e *Entry) { e.Points = e.Points[:2] }), true, 0.15) ||
		strings.Contains(out.String(), "bench: sig") || strings.Contains(out.String(), "bench: coord") {
		t.Errorf("partial run failed or judged layers it did not measure:\n%s", out.String())
	}
}
