// Package baselines implements the comparison algorithms discussed in the
// paper's related-work section: a max-propagation synchronizer in the style
// of Srikanth and Toueg [24] (optimal global skew, but Ω(D) local skew), and
// the single-threshold block synchronizer of Kuhn, Locher and Oshman [11]
// (stable local skew Θ(S), requiring S ∈ Ω(√ρD) to be stable). Both run on
// the same substrate as AOPT, so experiment E3 can compare the three shapes.
package baselines

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/transport"
)

// MaxSync propagates the maximum clock value: each node runs its hardware
// clock and jumps forward whenever a neighbor's certified estimate exceeds
// its own value. Global skew stays O(D); adjacent skew can reach the global
// skew, which is the weakness gradient algorithms fix.
type MaxSync struct {
	Rho float64

	rt *runner.Runtime
	l  []float64
	// stepFn/dHTick drive the sharded integration (method value built once
	// in Init; increments for the tick in flight).
	stepFn func(shard, lo, hi int)
	dHTick []float64
	// Jumps counts forward sets for diagnostics.
	Jumps uint64
}

var _ runner.Algorithm = (*MaxSync)(nil)

// NewMaxSync constructs the baseline.
func NewMaxSync(rho float64) *MaxSync { return &MaxSync{Rho: rho} }

// Name implements runner.Algorithm.
func (m *MaxSync) Name() string { return "maxsync" }

// Init implements runner.Algorithm.
func (m *MaxSync) Init(rt *runner.Runtime) {
	m.rt = rt
	m.l = make([]float64, rt.N())
	m.stepFn = m.stepShard
}

// OnEdgeUp implements runner.Algorithm (no-op: no insertion protocol).
func (m *MaxSync) OnEdgeUp(_, _ int, _ sim.Time) {}

// OnEdgeDown implements runner.Algorithm.
func (m *MaxSync) OnEdgeDown(_, _ int, _ sim.Time) {}

// OnBeacon implements runner.Algorithm: adopt larger certified values, with
// AOPT's flooding credit applied to the sender's clock.
func (m *MaxSync) OnBeacon(to, _ int, b transport.Beacon, d transport.Delivery) {
	if cand := core.FloodCandidate(b.L, d.MinTransit, m.rt.Tick(), m.Rho); cand > m.l[to] {
		m.l[to] = cand
		// Atomic: beacon deliveries to different receivers may run on
		// concurrent event shards; a commutative sum keeps the count
		// identical at every shard count.
		atomic.AddUint64(&m.Jumps, 1)
	}
}

// OnControl implements runner.Algorithm.
func (m *MaxSync) OnControl(_, _ int, _ any, _ transport.Delivery) {}

// Step implements runner.Algorithm: clocks advance at the hardware rate
// (sharded; each shard touches only its own l range).
func (m *MaxSync) Step(_ sim.Time, dH []float64) {
	m.dHTick = dH
	m.rt.ParallelTick(len(m.l), m.stepFn)
}

func (m *MaxSync) stepShard(_, lo, hi int) {
	dH := m.dHTick
	for u := lo; u < hi; u++ {
		m.l[u] += dH[u]
	}
}

// Logical implements runner.Algorithm.
func (m *MaxSync) Logical(u int) float64 { return m.l[u] }

// MaxEstimate implements runner.Algorithm; for max-propagation the clock is
// itself the max estimate.
func (m *MaxSync) MaxEstimate(u int) float64 { return m.l[u] }

// SetLogical supports corrupted-start experiments.
func (m *MaxSync) SetLogical(u int, v float64) { m.l[u] = v }
