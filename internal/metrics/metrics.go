// Package metrics provides the small reporting toolkit the experiment
// drivers share: aligned ASCII tables and CSV for the paper's tables, (x,y)
// series for its figures, and the summary statistics (mean, max,
// correlation) their rows report.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum (0 for an empty slice).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Pct renders a ratio as a percentage string, e.g. 0.2213 → "22.1%".
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// Table is a simple rectangular table with a title and column headers.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if w := widths[i] - len(c); i < len(cells)-1 && w > 0 {
				sb.WriteString(strings.Repeat(" ", w))
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (quoting cells that
// contain commas or quotes).
func (t Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			sb.WriteString(c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Series is a named (x, y) sequence standing in for one curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// Normalized returns a copy of the series with Y scaled to [0,1] (a flat
// series maps to zeros). Used to overlay differently-scaled curves the way
// Fig 2/5 compares miss counts against footprint.
func (s *Series) Normalized() Series {
	out := Series{Name: s.Name, X: append([]float64(nil), s.X...)}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, y := range s.Y {
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
	}
	span := hi - lo
	for _, y := range s.Y {
		if span == 0 {
			out.Y = append(out.Y, 0)
		} else {
			out.Y = append(out.Y, (y-lo)/span)
		}
	}
	return out
}

// Correlation returns the Pearson correlation of two equal-length series'
// Y values (0 if degenerate). Fig 2/5's claim is quantified this way:
// occupancy weight correlates with true footprint where miss counts do not.
func Correlation(a, b Series) float64 {
	n := len(a.Y)
	if n == 0 || n != len(b.Y) {
		return 0
	}
	ma, mb := Mean(a.Y), Mean(b.Y)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a.Y[i]-ma, b.Y[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// RenderSeries renders multiple series as an aligned text table with one
// row per x position (series are sampled at their own x values; all series
// must share x length for alignment).
func RenderSeries(title string, series ...Series) string {
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteByte('\n')
	sb.WriteString("x")
	for _, s := range series {
		fmt.Fprintf(&sb, "\t%s", s.Name)
	}
	sb.WriteByte('\n')
	if len(series) == 0 {
		return sb.String()
	}
	n := series[0].Len()
	for _, s := range series {
		if s.Len() < n {
			n = s.Len()
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%g", series[0].X[i])
		for _, s := range series {
			fmt.Fprintf(&sb, "\t%.4g", s.Y[i])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t Table) Markdown() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString("**")
		sb.WriteString(t.Title)
		sb.WriteString("**\n\n")
	}
	row := func(cells []string) {
		sb.WriteByte('|')
		for _, c := range cells {
			sb.WriteByte(' ')
			sb.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			sb.WriteString(" |")
		}
		sb.WriteByte('\n')
	}
	row(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range t.Rows {
		row(r)
	}
	return sb.String()
}
