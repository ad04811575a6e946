package sweep

import (
	"math"
	"sort"
	"testing"
)

// quantile returns the q-quantile of an unsorted copy of vals (NaN when
// empty), through the interpolation TailOf uses.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func TestQuantileInterpolates(t *testing.T) {
	vals := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3.0, 2},
	}
	for _, c := range cases {
		if got := quantile(vals, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	tail := TailOf(nil)
	if !math.IsNaN(tail.P50) || !math.IsNaN(tail.P99) {
		t.Error("TailOf(nil) should be all NaN")
	}
}

func TestTailOfMatchesQuantile(t *testing.T) {
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = float64(100 - i) // 100..0, unsorted order
	}
	tail := TailOf(vals)
	if tail.P50 != 50 || tail.P95 != 95 || tail.P99 != 99 {
		t.Errorf("TailOf = %+v, want 50/95/99", tail)
	}
	if s := tail.String(); s != "50/95/99" {
		t.Errorf("Tail.String() = %q", s)
	}
}
