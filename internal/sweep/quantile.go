package sweep

import (
	"fmt"
	"math"
	"sort"
)

// quantileSorted returns the q-quantile (0 ≤ q ≤ 1) of sorted values using
// linear interpolation between order statistics.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Tail holds the median and tail quantiles of one measured series — the
// skew distribution of a scenario run, say — so reports can show tail
// behavior instead of only mean±std.
type Tail struct {
	P50, P95, P99 float64
}

// TailOf computes p50/p95/p99 with a single sort of a copied slice.
func TailOf(vals []float64) Tail {
	if len(vals) == 0 {
		return Tail{P50: math.NaN(), P95: math.NaN(), P99: math.NaN()}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return Tail{
		P50: quantileSorted(sorted, 0.50),
		P95: quantileSorted(sorted, 0.95),
		P99: quantileSorted(sorted, 0.99),
	}
}

// String renders "p50/p95/p99" in the compact style of the result tables.
func (t Tail) String() string {
	return fmt.Sprintf("%.4g/%.4g/%.4g", t.P50, t.P95, t.P99)
}
