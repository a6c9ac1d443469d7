package experiments

import (
	"strings"
	"testing"
)

func TestAllocScaleQuick(t *testing.T) {
	tbl := AllocScale(Quick())
	if len(tbl.Rows) != 2 {
		t.Fatalf("quick AllocScale: %d rows, want 2 (P=64, P=256)", len(tbl.Rows))
	}
	s := tbl.String()
	for _, want := range []string{"64", "256", "sparse", "repair"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
	// One decision path: no dense column survives, and every row measures
	// the sparse decision and the repair.
	if strings.Contains(s, "dense") {
		t.Fatalf("table still carries a dense column:\n%s", s)
	}
	for _, row := range tbl.Rows {
		if len(row) != 5 || row[2] == "-" || row[3] == "-" {
			t.Fatalf("row %v: want P, k, sparse ms, repair µs, sparse/repair", row)
		}
	}
}

func TestSynthAllocViewsDeterministic(t *testing.T) {
	a, b := SynthAllocViews(96, 8), SynthAllocViews(96, 8)
	if len(a) != 96 {
		t.Fatalf("len %d", len(a))
	}
	for i := range a {
		if a[i].Occupancy != b[i].Occupancy || a[i].Symbiosis[3] != b[i].Symbiosis[3] {
			t.Fatalf("view %d differs between identical calls", i)
		}
		if !a[i].HasSig || len(a[i].Symbiosis) != 8 || len(a[i].Overlap) != 8 {
			t.Fatalf("view %d malformed", i)
		}
	}
}
