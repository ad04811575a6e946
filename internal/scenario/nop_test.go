package scenario

import (
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/transport"
)

// nopAlgo hosts the runtime in scenario tests without synchronizing
// anything; scenario behavior is asserted on the graph itself.
type nopAlgo struct{ n int }

var _ runner.Algorithm = (*nopAlgo)(nil)

func (a *nopAlgo) Name() string                                                { return "nop" }
func (a *nopAlgo) Init(rt *runner.Runtime)                                     { a.n = rt.N() }
func (a *nopAlgo) OnEdgeUp(_, _ int, _ sim.Time)                               {}
func (a *nopAlgo) OnEdgeDown(_, _ int, _ sim.Time)                             {}
func (a *nopAlgo) OnBeacon(_, _ int, _ transport.Beacon, _ transport.Delivery) {}
func (a *nopAlgo) OnControl(_, _ int, _ any, _ transport.Delivery)             {}
func (a *nopAlgo) Step(_ sim.Time, _ []float64)                                {}
func (a *nopAlgo) Logical(int) float64                                         { return 0 }
func (a *nopAlgo) MaxEstimate(int) float64                                     { return 0 }

// nopEstimator satisfies the estimate layer without producing estimates.
type nopEstimator struct{}

func (nopEstimator) Estimate(_, _ int) (float64, bool)            { return 0, false }
func (nopEstimator) EstimateAt(_, _ int, _ int32) (float64, bool) { return 0, false }
func (nopEstimator) Eps(_, _ int) float64                         { return 0.2 }
