// Package estimate implements the estimate layer of Section 3.1: for every
// estimate edge {u,v}, node u can obtain an estimate L̃ᵛᵤ of v's logical
// clock with a certified error bound ε (eq. 1).
//
// Two implementations are provided. Oracle realizes the abstract model
// directly: it perturbs the true clock value by an adversarially chosen
// error within ±ε, giving experiments exact control over the uncertainty.
// Messaging realizes the layer the way a real system would (and the way
// [12] describes): periodic beacons carry clock values, and the receiver
// advances the last sample at the certified minimum rate; its ε is derived
// from the protocol parameters and is verified at runtime by tests.
package estimate

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// Layer is the interface the synchronization algorithms consume. The
// sharded integration tick calls Estimate, EstimateAt and Eps concurrently
// for distinct querying nodes u while no clock integrates, so a query must
// not race with another node's and its answer must not depend on which
// shard asks first. Every layer in this package meets that: samples are
// written by engine events, never inside a tick, and a query by u writes
// only u's own error stream or an atomic miss count.
type Layer interface {
	// Estimate returns u's current estimate of v's logical clock. ok is
	// false when v ∉ N_u or no valid estimate is available (no beacon yet,
	// or the last sample is too old to be certified).
	Estimate(u, v int) (value float64, ok bool)
	// EstimateAt is Estimate for a caller that already holds the directed
	// index dir of (u, v) (topo.Dynamic.Dir, or an entry of Row(u)) and
	// knows v ∈ N_u: it returns exactly what Estimate(u, v) would, with
	// the same side effects (miss counts, error-policy draws), but skips
	// the adjacency lookups Estimate makes. For an edge u does not see the
	// result is unspecified.
	EstimateAt(u, v int, dir int32) (value float64, ok bool)
	// Eps returns the certified error bound for estimates on the declared
	// link whose directed index (either side) is dir:
	// |L_v(t) − L̃ᵛᵤ(t)| ≤ Eps(dir) whenever Estimate(u, v) reports ok.
	// Like EstimateAt, it takes the index so that a caller walking Row(u)
	// makes no adjacency lookup.
	Eps(dir int32) float64
}

// ErrorPolicy chooses the oracle's estimate error within [−ε, +ε]. It plays
// the role of the estimate-layer adversary. Err may be called concurrently
// for distinct querying nodes u, and node u's answers may depend only on
// u's own call history.
type ErrorPolicy interface {
	Err(u, v int, trueU, trueV, eps float64) float64
	// SkipErrs leaves querying node u's draws where k more Err(u, …) calls
	// would leave them, without making the calls, so a caller that knows
	// k queries' answers fall within bounds it can use may leave them out.
	SkipErrs(u int, k uint32)
}

// ZeroError returns perfect estimates (error 0).
type ZeroError struct{}

// Err implements ErrorPolicy.
func (ZeroError) Err(_, _ int, _, _, _ float64) float64 { return 0 }

// SkipErrs implements ErrorPolicy (stateless).
func (ZeroError) SkipErrs(int, uint32) {}

// PerNodeRandomError draws the error uniformly from [−ε, +ε) out of a
// dedicated stream per querying node. Node u's draw sequence then depends
// only on u's own query history — each node queries its neighbors in a
// fixed per-tick order — so the adversary is deterministic under any shard
// fan-out, and shards never contend on a stream. This is the "random"
// policy of the public config.
//
// The streams are sim.Streams, not math/rand sources: this policy is
// queried once per live edge per tick on the hottest path in the
// repository, and it scales per node. An LFG source costs ~5 KB of state
// and ~30 µs of seeding per node (5 GB / 30 s at N=10⁶) and its Uint64
// dominated the tick profile; a Stream is 8 bytes per node, seeded in one
// multiply, and a handful of ALU ops per draw.
type PerNodeRandomError struct {
	streams []sim.Stream
}

// NewPerNodeRandomError builds the policy for n querying nodes, deriving
// one well-separated stream per node from a single draw off rng.
func NewPerNodeRandomError(n int, rng *sim.RNG) *PerNodeRandomError {
	base := rng.Uint64()
	streams := make([]sim.Stream, n)
	for u := range streams {
		streams[u] = sim.NewStream(base, u)
	}
	return &PerNodeRandomError{streams: streams}
}

// Err implements ErrorPolicy.
func (p *PerNodeRandomError) Err(u, _ int, _, _, eps float64) float64 {
	if u < 0 || u >= len(p.streams) {
		return 0
	}
	return p.streams[u].Uniform(-eps, eps)
}

// SkipErrs implements ErrorPolicy by skipping k draws of u's stream.
func (p *PerNodeRandomError) SkipErrs(u int, k uint32) {
	if u < 0 || u >= len(p.streams) {
		return
	}
	p.streams[u].Skip(uint64(k))
}

// HoldBack always reports −ε (estimates lag behind the truth).
type HoldBack struct{}

// Err implements ErrorPolicy.
func (HoldBack) Err(_, _ int, _, _, eps float64) float64 { return -eps }

// SkipErrs implements ErrorPolicy (stateless).
func (HoldBack) SkipErrs(int, uint32) {}

// PushForward always reports +ε.
type PushForward struct{}

// Err implements ErrorPolicy.
func (PushForward) Err(_, _ int, _, _, eps float64) float64 { return eps }

// SkipErrs implements ErrorPolicy (stateless).
func (PushForward) SkipErrs(int, uint32) {}

// AntiConvergence chooses the sign that makes the neighbor look closer to u
// than it truly is: nodes ahead appear less ahead and nodes behind appear
// less behind. This is the worst adversary for convergence speed, since it
// weakens every trigger that would correct skew.
type AntiConvergence struct{}

// Err implements ErrorPolicy.
func (AntiConvergence) Err(_, _ int, trueU, trueV, eps float64) float64 {
	if trueV > trueU {
		return -eps
	}
	return eps
}

// SkipErrs implements ErrorPolicy (stateless).
func (AntiConvergence) SkipErrs(int, uint32) {}

// Amplify chooses the sign that makes the neighbor look farther from u than
// it truly is, over-triggering corrections (stress for stability).
type Amplify struct{}

// Err implements ErrorPolicy.
func (Amplify) Err(_, _ int, trueU, trueV, eps float64) float64 {
	if trueV > trueU {
		return eps
	}
	return -eps
}

// SkipErrs implements ErrorPolicy (stateless).
func (Amplify) SkipErrs(int, uint32) {}

// Oracle is the abstract-model estimate layer.
type Oracle struct {
	dyn    *topo.Dynamic
	clock  func(int) float64
	policy ErrorPolicy
}

// NewOracle builds an oracle layer. clock must return the current true
// logical clock of a node; policy may be nil for zero error.
func NewOracle(dyn *topo.Dynamic, clock func(int) float64, policy ErrorPolicy) *Oracle {
	if policy == nil {
		policy = ZeroError{}
	}
	return &Oracle{dyn: dyn, clock: clock, policy: policy}
}

// SkipQueries leaves node u's error draws where k EstimateAt calls by u
// would leave them, without computing an estimate. The oracle clamps every
// error to ±ε, so a caller that skips queries knows each skipped answer
// lies within ε of the neighbour's true clock.
func (o *Oracle) SkipQueries(u int, k uint32) { o.policy.SkipErrs(u, k) }

// Estimate implements Layer.
func (o *Oracle) Estimate(u, v int) (float64, bool) {
	dir, ok := o.dyn.Dir(u, v)
	if !ok || !o.dyn.SeesAt(dir) {
		return 0, false
	}
	return o.EstimateAt(u, v, dir)
}

// EstimateAt implements Layer.
func (o *Oracle) EstimateAt(u, v int, dir int32) (float64, bool) {
	eps := o.dyn.ParamsAt(dir).Eps
	trueU, trueV := o.clock(u), o.clock(v)
	err := o.policy.Err(u, v, trueU, trueV, eps)
	if err > eps {
		err = eps
	}
	if err < -eps {
		err = -eps
	}
	return trueV + err, true
}

// Eps implements Layer.
func (o *Oracle) Eps(dir int32) float64 { return o.dyn.ParamsAt(dir).Eps }
