package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a rendered experiment artifact: a titled grid of strings.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table in aligned monospace, suitable for terminals and
// Markdown code blocks.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Report is the output of one experiment: an id ("table5", "figure2"), a
// caption, one or more tables and free-form notes (e.g. paper-vs-measured
// commentary).
type Report struct {
	ID      string
	Caption string
	Tables  []*Table
	Notes   []string
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", r.ID, r.Caption)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// pct renders a fraction as a percentage with two decimals.
func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }

// pct3 renders a fraction as a percentage with three decimals (used for
// near-zero violation rates).
func pct3(x float64) string { return fmt.Sprintf("%.3f%%", 100*x) }

// signedPct renders a signed percentage difference.
func signedPct(x float64) string { return fmt.Sprintf("%+.2f%%", 100*x) }

// cdfDeciles samples the ECDF of xs at the given quantile levels and
// returns the x values (for decile-style figure tables).
func cdfDeciles(xs []float64, qs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if len(s) == 0 {
			out[i] = 0
			continue
		}
		idx := int(q * float64(len(s)-1))
		out[i] = s[idx]
	}
	return out
}

// defaultQs are the quantile levels used in figure tables.
var defaultQs = []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99}

// qsHeader renders the quantile header row.
func qsHeader(label string) []string {
	h := []string{label}
	for _, q := range defaultQs {
		h = append(h, fmt.Sprintf("p%02.0f", q*100))
	}
	return h
}

// qsRow renders one curve's quantiles with a value formatter.
func qsRow(name string, xs []float64, format func(float64) string) []string {
	row := []string{name}
	for _, v := range cdfDeciles(xs, defaultQs) {
		row = append(row, format(v))
	}
	return row
}

// secs formats seconds compactly.
func secs(v float64) string { return fmt.Sprintf("%.1fs", v) }

// count formats a float count without decimals.
func count(v float64) string { return fmt.Sprintf("%.0f", v) }
