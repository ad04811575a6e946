package metrics

import (
	"math"
	"strings"
	"testing"
)

func seriesOf(pts ...Point) *Series {
	s := &Series{Name: "test"}
	s.Points = pts
	return s
}

func TestMaxAfter(t *testing.T) {
	s := seriesOf(Point{0, 10}, Point{5, 2}, Point{10, 4})
	if got := s.MaxAfter(1); got != 4 {
		t.Errorf("MaxAfter(1) = %v, want 4", got)
	}
	if got := s.MaxAfter(0); got != 10 {
		t.Errorf("MaxAfter(0) = %v, want 10", got)
	}
	if got := s.MaxAfter(11); !math.IsNaN(got) {
		t.Errorf("MaxAfter past end = %v, want NaN", got)
	}
}

func TestMaxSlope(t *testing.T) {
	s := seriesOf(Point{0, 0}, Point{1, 2}, Point{2, 3})
	if got := s.MaxSlope(); got != 2 {
		t.Errorf("MaxSlope = %v, want 2", got)
	}
}

func TestFirstSustainedBelow(t *testing.T) {
	s := seriesOf(
		Point{0, 10}, Point{1, 0.5}, Point{2, 10}, // dip that does not last
		Point{3, 0.5}, Point{4, 0.4}, Point{5, 0.3}, Point{6, 0.2},
	)
	got, ok := s.FirstSustainedBelow(1, 2, 0)
	if !ok || got != 3 {
		t.Errorf("FirstSustainedBelow = %v, %v; want 3, true", got, ok)
	}
	if _, ok := s.FirstSustainedBelow(0.1, 1, 0); ok {
		t.Error("found sustained period below an unreachable threshold")
	}
	// from excludes the early dip even if it would qualify.
	got, ok = s.FirstSustainedBelow(1, 0.5, 2.5)
	if !ok || got != 3 {
		t.Errorf("FirstSustainedBelow(from=2.5) = %v, %v; want 3, true", got, ok)
	}
}

func TestSlopeBetween(t *testing.T) {
	s := seriesOf(Point{0, 0}, Point{10, 5})
	if got := s.SlopeBetween(0, 10); got != 0.5 {
		t.Errorf("SlopeBetween = %v, want 0.5", got)
	}
	if got := s.SlopeBetween(0, 99); !math.IsNaN(got) {
		t.Errorf("SlopeBetween past end = %v, want NaN", got)
	}
}

func TestGlobalSkew(t *testing.T) {
	if got := GlobalSkew([]float64{3, 9, 5}); got != 6 {
		t.Errorf("GlobalSkew = %v, want 6", got)
	}
	if got := GlobalSkew(nil); got != 0 {
		t.Errorf("GlobalSkew(nil) = %v, want 0", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "n", "skew")
	tab.AddRow(8, 1.25)
	tab.AddRow(16, 2.5)
	out := tab.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "skew") {
		t.Errorf("table missing title/header:\n%s", out)
	}
	if !strings.Contains(out, "1.25") || !strings.Contains(out, "16") {
		t.Errorf("table missing data:\n%s", out)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	slope, intercept := LinearFit(xs, ys)
	if math.Abs(slope-2) > 1e-9 || math.Abs(intercept-1) > 1e-9 {
		t.Errorf("fit = %v, %v; want 2, 1", slope, intercept)
	}
	s, _ := LinearFit(nil, nil)
	if !math.IsNaN(s) {
		t.Error("fit of empty data should be NaN")
	}
}

func TestCorrCoef(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := CorrCoef(xs, []float64{2, 4, 6, 8}); math.Abs(got-1) > 1e-9 {
		t.Errorf("perfect correlation = %v, want 1", got)
	}
	if got := CorrCoef(xs, []float64{8, 6, 4, 2}); math.Abs(got+1) > 1e-9 {
		t.Errorf("perfect anticorrelation = %v, want -1", got)
	}
	if got := CorrCoef(xs, []float64{5, 5, 5, 5}); !math.IsNaN(got) {
		t.Errorf("constant series correlation = %v, want NaN", got)
	}
}
