package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestMeanMax(t *testing.T) {
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty slices must yield 0")
	}
	xs := []float64{1, 2, 9}
	if Mean(xs) != 4 {
		t.Fatalf("Mean = %g", Mean(xs))
	}
	if Max(xs) != 9 {
		t.Fatalf("Max = %g", Max(xs))
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.2213); got != "22.1%" {
		t.Fatalf("Pct = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"name", "value"}}
	tb.AddRow("mcf", 0.54321)
	tb.AddRow("a-long-benchmark-name", 7)
	s := tb.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "mcf") {
		t.Fatalf("table render missing pieces:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
	// Header and separator align.
	if len(lines[2]) < len("name  value") {
		t.Fatalf("separator too short: %q", lines[2])
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Headers: []string{"a", "b"}}
	tb.AddRow("x,y", "with \"quote\"")
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Fatalf("comma cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, `"with ""quote"""`) {
		t.Fatalf("quote cell not escaped: %q", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("header wrong: %q", csv)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(0, 10)
	s.Add(1, 20)
	s.Add(2, 10)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	n := s.Normalized()
	if n.Y[0] != 0 || n.Y[1] != 1 || n.Y[2] != 0 {
		t.Fatalf("Normalized = %v", n.Y)
	}
	flat := Series{Y: []float64{5, 5, 5}, X: []float64{0, 1, 2}}
	for _, y := range flat.Normalized().Y {
		if y != 0 {
			t.Fatal("flat series must normalise to zeros")
		}
	}
}

func TestCorrelation(t *testing.T) {
	a := Series{Y: []float64{1, 2, 3, 4}}
	b := Series{Y: []float64{2, 4, 6, 8}}
	if got := Correlation(a, b); math.Abs(got-1) > 1e-9 {
		t.Fatalf("perfect correlation = %g", got)
	}
	c := Series{Y: []float64{4, 3, 2, 1}}
	if got := Correlation(a, c); math.Abs(got+1) > 1e-9 {
		t.Fatalf("perfect anticorrelation = %g", got)
	}
	flat := Series{Y: []float64{5, 5, 5, 5}}
	if Correlation(a, flat) != 0 {
		t.Fatal("flat series correlation must be 0")
	}
	if Correlation(a, Series{Y: []float64{1}}) != 0 {
		t.Fatal("mismatched lengths must yield 0")
	}
}

func TestRenderSeries(t *testing.T) {
	a := Series{Name: "misses", X: []float64{0, 1}, Y: []float64{5, 6}}
	b := Series{Name: "occupancy", X: []float64{0, 1}, Y: []float64{7, 8}}
	out := RenderSeries("fig", a, b)
	if !strings.Contains(out, "misses") || !strings.Contains(out, "occupancy") {
		t.Fatalf("render missing names:\n%s", out)
	}
	if !strings.Contains(out, "7") {
		t.Fatalf("render missing values:\n%s", out)
	}
	if out := RenderSeries("empty"); !strings.Contains(out, "empty") {
		t.Fatal("empty render broken")
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"a", "b"}}
	tb.AddRow("x|y", 1)
	md := tb.Markdown()
	if !strings.Contains(md, "**T**") {
		t.Fatalf("missing title: %q", md)
	}
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| --- | --- |") {
		t.Fatalf("missing header/separator: %q", md)
	}
	if !strings.Contains(md, `x\|y`) {
		t.Fatalf("pipe not escaped: %q", md)
	}
}
