// Package drift models the hardware clocks of the paper's system model
// (Section 3): each node u has a clock H_u with rate h_u(t) ∈ [1−ρ, 1+ρ],
// controlled by an adversary. Schedules implement the adversary.
package drift

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Schedule assigns a drift-bounded rate to every node at every time. Rate
// must return values in [1−ρ, 1+ρ] for the ρ the schedule was built with;
// Clamp in this package enforces the envelope defensively. The sharded
// integration tick calls Rate concurrently for distinct nodes within one
// tick, so Rate must not race and its values must not depend on call order.
// Every schedule in this package meets that.
type Schedule interface {
	// Rate returns the hardware clock rate of node u at time t.
	Rate(u int, t sim.Time) float64
}

// ConstantStretch is the opt-in introspection contract of the runner's rate
// envelope (runner.Runtime.RateEnvelope): RatesConstantUntil(t) returns a
// time b ≥ t such that every node's rate is constant on [t, b) — no node's
// Rate(u, ·) changes value anywhere in the stretch. Returning t (an empty
// stretch) is always sound and certifies nothing. Schedules that cannot
// certify a stretch — lazily materialized paths like RandomWalk — simply do
// not implement the interface. The envelope promises that every tick before
// b integrates each node at a rate within the extremes the barrier tick at t
// measured, and oracle-backed quiet-node certificates end with the stretch.
type ConstantStretch interface {
	RatesConstantUntil(t sim.Time) sim.Time
}

// Clamp limits r to the legal envelope [1−ρ, 1+ρ].
func Clamp(r, rho float64) float64 {
	if r < 1-rho {
		return 1 - rho
	}
	if r > 1+rho {
		return 1 + rho
	}
	return r
}

// constant gives every node the same fixed rate.
type constant struct{ r float64 }

// Rate implements Schedule.
func (c constant) Rate(int, sim.Time) float64 { return c.r }

// RatesConstantUntil implements ConstantStretch: rates never change.
func (constant) RatesConstantUntil(sim.Time) sim.Time { return math.Inf(1) }

// Perfect is the drift-free schedule (rate 1 everywhere).
func Perfect() Schedule { return constant{r: 1} }

// TwoGroup splits nodes at a boundary index: nodes with id < Split run at
// 1+ρ, the rest at 1−ρ. This is the classic skew-building adversary used in
// the Ω(D) constructions.
type TwoGroup struct {
	Rho   float64
	Split int
}

// Rate implements Schedule.
func (g TwoGroup) Rate(u int, _ sim.Time) float64 {
	if u < g.Split {
		return 1 + g.Rho
	}
	return 1 - g.Rho
}

// RatesConstantUntil implements ConstantStretch: rates are time-independent.
func (TwoGroup) RatesConstantUntil(sim.Time) sim.Time { return math.Inf(1) }

// Linear interpolates rates across node ids from 1+ρ at node 0 down to 1−ρ
// at node N−1, producing a smooth skew gradient along a line topology.
type Linear struct {
	Rho float64
	N   int
}

// Rate implements Schedule.
func (l Linear) Rate(u int, _ sim.Time) float64 {
	if l.N <= 1 {
		return 1
	}
	frac := float64(u) / float64(l.N-1) // 0..1
	return 1 + l.Rho*(1-2*frac)
}

// RatesConstantUntil implements ConstantStretch: rates are time-independent.
func (Linear) RatesConstantUntil(sim.Time) sim.Time { return math.Inf(1) }

// Sinusoid gives node u rate 1 + ρ·sin(2π(t/Period + u·PhasePerNode)). With
// distinct phases this exercises time-varying relative drift.
type Sinusoid struct {
	Rho          float64
	Period       float64
	PhasePerNode float64
}

// Rate implements Schedule.
func (s Sinusoid) Rate(u int, t sim.Time) float64 {
	if s.Period <= 0 {
		return 1
	}
	return 1 + s.Rho*math.Sin(2*math.Pi*(t/s.Period+float64(u)*s.PhasePerNode))
}

// RatesConstantUntil implements ConstantStretch: rates vary continuously, so
// no non-empty stretch can be certified.
func (Sinusoid) RatesConstantUntil(t sim.Time) sim.Time { return t }

// Flip alternates each node between +ρ and −ρ with a per-node period,
// flipping at staggered offsets so relative drift direction keeps changing.
type Flip struct {
	Rho    float64
	Period float64
}

// Rate implements Schedule.
func (f Flip) Rate(u int, t sim.Time) float64 {
	if f.Period <= 0 {
		return 1
	}
	phase := math.Floor(t/f.Period) + float64(u)
	if math.Mod(phase, 2) < 1 {
		return 1 + f.Rho
	}
	return 1 - f.Rho
}

// RatesConstantUntil implements ConstantStretch: every node's rate is
// piecewise constant between the shared period boundaries.
func (f Flip) RatesConstantUntil(t sim.Time) sim.Time {
	if f.Period <= 0 {
		return math.Inf(1)
	}
	return (math.Floor(t/f.Period) + 1) * f.Period
}

// RandomWalk gives each node an independent bounded random-walk rate,
// resampled every Step time units. It is deterministic for a fixed seed.
// Node u's path is drawn from its own stream, so Rate may extend different
// nodes' paths concurrently, and each node's path is the same whatever
// order the nodes are queried in. It keeps only each node's latest segment:
// the runtime queries every node at nondecreasing times, and a query for an
// earlier segment replays the node's path from the start of its stream.
type RandomWalk struct {
	rho  float64
	step float64
	base uint64
	// nodes[u] is node u's walk at the latest segment a query reached.
	nodes []walkNode
}

// walkNode is one node's walk at segment seg (−1 before the first draw):
// off is that segment's rate minus 1, and s the node's stream after the
// seg+1 draws that produced it.
type walkNode struct {
	seg int
	off float64
	s   sim.Stream
}

// NewRandomWalk builds a random-walk schedule for n nodes, deriving one
// stream per node from a single draw off rng.
func NewRandomWalk(rho, step float64, n int, rng *sim.RNG) *RandomWalk {
	if !(step > 0 && step < math.Inf(1)) {
		panic(fmt.Sprintf("drift: random walk step must be positive and finite, got %v", step))
	}
	w := &RandomWalk{rho: rho, step: step, base: rng.Uint64(), nodes: make([]walkNode, n)}
	for u := range w.nodes {
		w.nodes[u] = w.start(u)
	}
	return w
}

// start is node u's walk before its first draw.
func (w *RandomWalk) start(u int) walkNode {
	return walkNode{seg: -1, s: sim.NewStream(w.base, u)}
}

// Rate implements Schedule.
func (w *RandomWalk) Rate(u int, t sim.Time) float64 {
	if u < 0 || u >= len(w.nodes) {
		return 1
	}
	seg := int(t / w.step)
	n := &w.nodes[u]
	if seg < n.seg {
		replay := w.start(u)
		n = &replay
	}
	for ; n.seg < seg; n.seg++ {
		n.off = Clamp(1+n.off+n.s.Uniform(-0.3, 0.3)*w.rho, w.rho) - 1
	}
	return 1 + n.off
}

// Switching wraps another schedule and switches it on only during
// [From, Until); outside the window every node runs at rate 1. It is used to
// build skew during a set-up phase and then hold the system steady.
type Switching struct {
	Inner Schedule
	From  sim.Time
	Until sim.Time
}

// Rate implements Schedule.
func (s Switching) Rate(u int, t sim.Time) float64 {
	if t >= s.From && t < s.Until {
		return s.Inner.Rate(u, t)
	}
	return 1
}

// RatesConstantUntil implements ConstantStretch, boundary-aware: outside the
// window the rate is the constant 1 until the window opens (or forever once
// it has closed); inside, the inner schedule's stretch is delegated and
// capped at Until, where every node may jump back to rate 1. An inner
// schedule without the contract certifies nothing inside the window.
func (s Switching) RatesConstantUntil(t sim.Time) sim.Time {
	if s.From >= s.Until {
		return math.Inf(1) // empty window: rate 1 forever
	}
	if t < s.From {
		return s.From
	}
	if t >= s.Until {
		return math.Inf(1)
	}
	cs, ok := s.Inner.(ConstantStretch)
	if !ok {
		return t
	}
	b := cs.RatesConstantUntil(t)
	if b > s.Until {
		b = s.Until
	}
	return b
}
