// Package metrics provides time-series recording and the skew measurements
// the experiments report: global skew, adjacent (local) skew, skew as a
// function of distance, and stabilization-time detection.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one sample of a time series.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// MaxAfter returns the maximum value at sample times ≥ t0 (NaN if none).
func (s *Series) MaxAfter(t0 float64) float64 {
	best := math.NaN()
	for _, p := range s.Points {
		if p.T >= t0 && (math.IsNaN(best) || p.V > best) {
			best = p.V
		}
	}
	return best
}

// MaxSlope returns the largest (v2−v1)/(t2−t1) between consecutive samples,
// used to verify growth-rate bounds such as Theorem 5.6 I.
func (s *Series) MaxSlope() float64 {
	best := math.Inf(-1)
	for i := 1; i < len(s.Points); i++ {
		dt := s.Points[i].T - s.Points[i-1].T
		if dt <= 0 {
			continue
		}
		if sl := (s.Points[i].V - s.Points[i-1].V) / dt; sl > best {
			best = sl
		}
	}
	return best
}

// FirstSustainedBelow returns the first sample time from which the series
// stays ≤ threshold for at least window time units (and until the series
// ends if it ends inside the window). The second result is false if no such
// time exists.
func (s *Series) FirstSustainedBelow(threshold, window, from float64) (float64, bool) {
	n := len(s.Points)
	for i := 0; i < n; i++ {
		if s.Points[i].T < from || s.Points[i].V > threshold {
			continue
		}
		start := s.Points[i].T
		ok := true
		for j := i; j < n; j++ {
			if s.Points[j].T-start > window {
				break
			}
			if s.Points[j].V > threshold {
				ok = false
				break
			}
		}
		if ok {
			return start, true
		}
	}
	return 0, false
}

// SlopeBetween fits the average slope between the first samples at or after
// t1 and t2 (NaN when the samples do not exist).
func (s *Series) SlopeBetween(t1, t2 float64) float64 {
	p1, ok1 := s.firstAtOrAfter(t1)
	p2, ok2 := s.firstAtOrAfter(t2)
	if !ok1 || !ok2 || p2.T == p1.T {
		return math.NaN()
	}
	return (p2.V - p1.V) / (p2.T - p1.T)
}

func (s *Series) firstAtOrAfter(t float64) (Point, bool) {
	idx := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T >= t })
	if idx == len(s.Points) {
		return Point{}, false
	}
	return s.Points[idx], true
}

// Table is a simple fixed-column report writer used by the experiment
// harness to print paper-style result tables.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v, floats with %.4g.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// GlobalSkew returns max−min over clock values.
func GlobalSkew(l []float64) float64 {
	if len(l) == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range l {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// LinearFit returns slope and intercept of a least-squares fit y = a·x + b.
func LinearFit(xs, ys []float64) (slope, intercept float64) {
	n := float64(len(xs))
	if n == 0 || len(xs) != len(ys) {
		return math.NaN(), math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN(), math.NaN()
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

// CorrCoef returns the Pearson correlation coefficient of two vectors.
func CorrCoef(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 || len(xs) != len(ys) {
		return math.NaN()
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var num, dx2, dy2 float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		num += dx * dy
		dx2 += dx * dx
		dy2 += dy * dy
	}
	if dx2 == 0 || dy2 == 0 {
		return math.NaN()
	}
	return num / math.Sqrt(dx2*dy2)
}
