// Package experiments reproduces every table and figure of the paper's
// evaluation on synthetic data: each experiment is a named runner that
// returns a structured Result which renders to the text tables and series
// the paper reports. The per-experiment index lives in DESIGN.md; expected
// versus measured shapes are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Result is the structured outcome of one experiment.
type Result struct {
	// ID is the experiment identifier (e.g. "table3", "fig11a").
	ID string
	// Title describes the reproduced artifact.
	Title string
	// PaperClaim summarizes the shape the paper reports for this artifact.
	PaperClaim string
	// Tables and Series carry the regenerated data.
	Tables []Table
	Series []Series
	// Notes carries caveats (scaling, substitutions).
	Notes []string
}

// Cells returns the artifact's output size: table cells plus series
// points. Benchmark metrics record it so a run's registry states how much
// data each artifact produced, not just how long it took.
func (r *Result) Cells() int {
	n := 0
	for i := range r.Tables {
		t := &r.Tables[i]
		for _, row := range t.Rows {
			n += len(row)
		}
	}
	for i := range r.Series {
		n += len(r.Series[i].Y)
	}
	return n
}

// Table is one printable table.
type Table struct {
	Name   string
	Header []string
	Rows   [][]string
}

// Series is one printable (x, y) series, e.g. a line of Figure 11.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Render formats the result for terminals and EXPERIMENTS.md.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for i := range r.Tables {
		b.WriteString(renderTable(&r.Tables[i]))
	}
	for i := range r.Series {
		b.WriteString(renderSeries(&r.Series[i]))
	}
	return b.String()
}

func renderTable(t *Table) string {
	var b strings.Builder
	if t.Name != "" {
		fmt.Fprintf(&b, "-- %s --\n", t.Name)
	}
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
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
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

func renderSeries(s *Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- series %s --\n", s.Name)
	for i := range s.Y {
		fmt.Fprintf(&b, "%16s  %.4f\n", fmt.Sprintf("%g", s.X[i]), s.Y[i])
	}
	return b.String()
}

// f formats a float compactly for table cells.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// Pearson computes the Pearson correlation coefficient.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	den := math.Sqrt((sxx - sx*sx/n) * (syy - sy*sy/n))
	if den == 0 {
		return 0
	}
	return (sxy - sx*sy/n) / den
}

// Spearman computes the Spearman rank correlation coefficient.
func Spearman(x, y []float64) float64 {
	return Pearson(ranks(x), ranks(y))
}

// ranks replaces values by their average ranks.
func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	out := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// Quantile returns the q-quantile (0..1) of the sorted slice.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Median returns the median of an unsorted slice (copies).
func Median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return Quantile(c, 0.5)
}

// CDFPoints reduces a sorted sample to (value, cumulative fraction) pairs
// at the given resolution.
func CDFPoints(sorted []float64, points int) (xs, ys []float64) {
	if len(sorted) == 0 || points < 2 {
		return nil, nil
	}
	for i := 0; i < points; i++ {
		q := float64(i) / float64(points-1)
		xs = append(xs, Quantile(sorted, q))
		ys = append(ys, q)
	}
	return xs, ys
}
