package sweep

import (
	"fmt"
	"math"
)

// Summary holds cross-replica statistics of one measured quantity.
type Summary struct {
	N    int
	Mean float64
	// Std is the sample standard deviation (n−1 denominator); 0 when N < 2.
	Std float64
	Min float64
	Max float64
}

// Summarize folds the values in slice order, so a fixed replica ordering
// yields bit-identical statistics regardless of how the replicas were
// scheduled.
func Summarize(vals []float64) Summary {
	s := Summary{N: len(vals)}
	if s.N == 0 {
		s.Mean, s.Std, s.Min, s.Max = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		return s
	}
	sum := 0.0
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N >= 2 {
		ss := 0.0
		for _, v := range vals {
			d := v - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// String renders "mean±std" in the compact %.4g style the result tables
// use; a degenerate spread (single replica, or all replicas equal) renders
// as the plain mean.
func (s Summary) String() string {
	if s.N == 0 {
		return "NaN"
	}
	if s.Std == 0 {
		return fmt.Sprintf("%.4g", s.Mean)
	}
	return fmt.Sprintf("%.4g±%.2g", s.Mean, s.Std)
}
