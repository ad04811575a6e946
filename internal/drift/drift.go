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
// Clamp in this package enforces the envelope defensively.
type Schedule interface {
	// Rate returns the hardware clock rate of node u at time t.
	Rate(u int, t sim.Time) float64
}

// ConcurrentSchedule is the opt-in contract of the sharded integration tick:
// a schedule whose ConcurrentRates returns true promises that Rate may be
// called concurrently for distinct nodes within one tick — after PrepareTick
// ran, when the schedule also implements TickPreparer — without races and
// with values independent of call order. Every schedule in this package
// satisfies the contract; the runner falls back to serial rate evaluation
// for schedules that do not implement it, so a stateful external Schedule
// stays correct by default.
type ConcurrentSchedule interface {
	ConcurrentRates() bool
}

// TickPreparer is implemented by schedules with lazily extended internal
// state (RandomWalk's piecewise-constant paths). The runner calls
// PrepareTick(t, n) once, serially, before fanning Rate(u, t) for u ∈ [0, n)
// across shards, so all RNG draws happen in the fixed ascending-node order
// the serial tick has always used and the concurrent reads hit only
// materialized state.
type TickPreparer interface {
	PrepareTick(t sim.Time, n int)
}

// ConstantStretch is the opt-in introspection contract of tick-crossing
// event windows: RatesConstantUntil(t) returns a time b ≥ t such that every
// node's rate is constant on [t, b) — no node's Rate(u, ·) changes value
// anywhere in the stretch. Returning t (an empty stretch) is always sound
// and disables crossing at t. Schedules that cannot certify a stretch —
// lazily materialized paths like RandomWalk — simply do not implement the
// interface. The runner only crosses an integration tick at T when the
// stretch covers [T, T+Tick), so the lazily applied tick uses the same
// Rate(u, T) values a barrier tick would have.
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

// Constant gives every node the same fixed rate.
type Constant struct{ R float64 }

// Rate implements Schedule.
func (c Constant) Rate(int, sim.Time) float64 { return c.R }

// ConcurrentRates implements ConcurrentSchedule (stateless).
func (Constant) ConcurrentRates() bool { return true }

// RatesConstantUntil implements ConstantStretch: rates never change.
func (Constant) RatesConstantUntil(sim.Time) sim.Time { return math.Inf(1) }

// Perfect is the drift-free schedule (rate 1 everywhere).
func Perfect() Schedule { return Constant{R: 1} }

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

// ConcurrentRates implements ConcurrentSchedule (stateless).
func (TwoGroup) ConcurrentRates() bool { return true }

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

// ConcurrentRates implements ConcurrentSchedule (stateless).
func (Linear) ConcurrentRates() bool { return true }

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

// ConcurrentRates implements ConcurrentSchedule (stateless).
func (Sinusoid) ConcurrentRates() bool { return true }

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

// ConcurrentRates implements ConcurrentSchedule (stateless).
func (Flip) ConcurrentRates() bool { return true }

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
type RandomWalk struct {
	rho  float64
	step float64
	// rates[u] is the piecewise-constant path of node u, extended lazily.
	rates [][]float64
	rng   *sim.RNG
}

// NewRandomWalk builds a random-walk schedule for n nodes.
func NewRandomWalk(rho, step float64, n int, rng *sim.RNG) *RandomWalk {
	if !(step > 0 && step < math.Inf(1)) {
		panic(fmt.Sprintf("drift: random walk step must be positive and finite, got %v", step))
	}
	return &RandomWalk{rho: rho, step: step, rates: make([][]float64, n), rng: rng}
}

// Rate implements Schedule.
func (w *RandomWalk) Rate(u int, t sim.Time) float64 {
	if u < 0 || u >= len(w.rates) {
		return 1
	}
	idx := int(t / w.step)
	path := w.rates[u]
	for len(path) <= idx {
		prev := 0.0
		if len(path) > 0 {
			prev = path[len(path)-1]
		}
		next := Clamp(1+prev+w.rng.Uniform(-0.3, 0.3)*w.rho, w.rho) - 1
		path = append(path, next)
	}
	w.rates[u] = path
	return 1 + path[idx]
}

// ConcurrentRates implements ConcurrentSchedule: safe once PrepareTick has
// materialized every path for the tick, because the concurrent Rate calls
// then only read (the redundant same-value slice-header store hits only the
// caller's own index).
func (*RandomWalk) ConcurrentRates() bool { return true }

// PrepareTick implements TickPreparer: it extends every node's path up to
// the segment covering t, drawing from the shared RNG in ascending node
// order — exactly the order the serial tick's Rate loop has always used, so
// prepared and unprepared runs are byte-identical.
func (w *RandomWalk) PrepareTick(t sim.Time, n int) {
	if n > len(w.rates) {
		n = len(w.rates)
	}
	for u := 0; u < n; u++ {
		w.Rate(u, t)
	}
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

// ConcurrentRates implements ConcurrentSchedule by delegating to the wrapped
// schedule; an inner schedule without the contract keeps the whole window
// serial.
func (s Switching) ConcurrentRates() bool {
	if c, ok := s.Inner.(ConcurrentSchedule); ok {
		return c.ConcurrentRates()
	}
	return false
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

// PrepareTick implements TickPreparer by forwarding to the wrapped schedule,
// but only inside [From, Until) — exactly when a serial tick would invoke
// Inner.Rate. Forwarding while the window is closed would draw lazy inner
// state (RandomWalk segments) earlier than the serial order does and break
// byte-identity across parallelism.
func (s Switching) PrepareTick(t sim.Time, n int) {
	if t < s.From || t >= s.Until {
		return
	}
	if p, ok := s.Inner.(TickPreparer); ok {
		p.PrepareTick(t, n)
	}
}

// PerNode assigns each node an individually fixed rate; missing entries run
// at rate 1.
type PerNode struct {
	Rates map[int]float64
}

// Rate implements Schedule.
func (p PerNode) Rate(u int, _ sim.Time) float64 {
	if r, ok := p.Rates[u]; ok {
		return r
	}
	return 1
}

// ConcurrentRates implements ConcurrentSchedule (concurrent map reads only).
func (PerNode) ConcurrentRates() bool { return true }

// RatesConstantUntil implements ConstantStretch: rates are time-independent.
func (PerNode) RatesConstantUntil(sim.Time) sim.Time { return math.Inf(1) }
