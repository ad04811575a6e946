package baselines

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/transport"
)

// BlockSync is the single-threshold gradient algorithm of [11] (Kuhn,
// Locher, Oshman, SPAA 2009): AOPT's per-node rule with exactly one level,
// whose block size S replaces κ (see BlockTriggers). The paper proves its
// stable local skew is Θ(S) provided S ∈ Ω(√(ρ·D)); experiment E3 sweeps S
// to expose that threshold empirically.
type BlockSync struct {
	// s is the block size (target local skew scale); rho and mu are as in
	// the core algorithm.
	s, rho, mu float64

	rt   *runner.Runtime
	l    []float64
	m    []float64
	mult []float64
	// shardCtr gives each tick shard a private mode tally; Step folds the
	// blocks into the public counters after the barrier (identical totals
	// to the serial tick). decideFn/integrateFn are method values built
	// once in Init; dHTick carries the tick's increments into the phases.
	shardCtr    []blockCounters
	decideFn    func(shard, lo, hi int)
	integrateFn func(shard, lo, hi int)
	dHTick      []float64

	// FastTicks/SlowTicks count node-ticks per mode.
	FastTicks, SlowTicks uint64
}

// blockCounters is one shard's tally, padded onto its own cache line.
type blockCounters struct {
	fast, slow uint64
	_          [6]uint64
}

var _ runner.Algorithm = (*BlockSync)(nil)

// NewBlockSync constructs the baseline; S must be finite and positive, and
// so must ρ and µ. The checks negate the legal range, so NaN fails them.
func NewBlockSync(s, rho, mu float64) (*BlockSync, error) {
	if !(s > 0) || math.IsInf(s, 1) {
		return nil, fmt.Errorf("baselines: block size S must be finite and positive, got %v", s)
	}
	if !(mu > 0 && rho > 0) || math.IsInf(mu, 1) || math.IsInf(rho, 1) {
		return nil, fmt.Errorf("baselines: rho and mu must be finite and positive, got %v and %v", rho, mu)
	}
	return &BlockSync{s: s, rho: rho, mu: mu}, nil
}

// Name implements runner.Algorithm.
func (b *BlockSync) Name() string { return "blocksync" }

// Init implements runner.Algorithm.
func (b *BlockSync) Init(rt *runner.Runtime) {
	b.rt = rt
	n := rt.N()
	b.l = make([]float64, n)
	b.m = make([]float64, n)
	b.mult = make([]float64, n)
	for i := range b.mult {
		b.mult[i] = 1
	}
	b.shardCtr = make([]blockCounters, rt.TickShards())
	b.decideFn = b.decideShard
	b.integrateFn = b.integrateShard
}

// OnEdgeUp implements runner.Algorithm; neighbors are used immediately (the
// [11] algorithm has no leveled insertion).
func (b *BlockSync) OnEdgeUp(_, _ int, _ sim.Time) {}

// OnEdgeDown implements runner.Algorithm.
func (b *BlockSync) OnEdgeDown(_, _ int, _ sim.Time) {}

// OnBeacon implements runner.Algorithm: max-estimate flooding as in AOPT.
func (b *BlockSync) OnBeacon(to, _ int, bc transport.Beacon, d transport.Delivery) {
	if cand := core.FloodCandidate(bc.M, d.MinTransit, b.rt.Tick(), b.rho); cand > b.m[to] {
		b.m[to] = cand
	}
}

// OnControl implements runner.Algorithm.
func (b *BlockSync) OnControl(_, _ int, _ any, _ transport.Delivery) {}

// Step implements runner.Algorithm: decide every mode from pre-tick state,
// then integrate — the same two sharded phases as the core algorithm (see
// core.Algorithm.Step for the determinism argument), so E03 compares
// algorithms under identical substrate parallelism.
func (b *BlockSync) Step(_ sim.Time, dH []float64) {
	b.dHTick = dH
	b.rt.ParallelTick(len(b.l), b.decideFn)
	b.rt.ParallelTick(len(b.l), b.integrateFn)
	for i := range b.shardCtr {
		c := &b.shardCtr[i]
		b.FastTicks += c.fast
		b.SlowTicks += c.slow
		*c = blockCounters{}
	}
}

// decideShard runs the mode-decision phase for nodes [lo, hi).
func (b *BlockSync) decideShard(shard, lo, hi int) {
	c := &b.shardCtr[shard]
	for u := lo; u < hi; u++ {
		b.mult[u] = b.decideMode(u, c)
	}
}

// integrateShard runs the clock-integration phase for nodes [lo, hi).
func (b *BlockSync) integrateShard(_, lo, hi int) {
	mRate := (1 - b.rho) / (1 + b.rho)
	dH := b.dHTick
	for u := lo; u < hi; u++ {
		b.l[u], b.m[u] = core.Integrate(b.l[u], b.m[u], b.mult[u], dH[u], mRate)
	}
}

// decideMode runs Listing 3 for node u on the single-threshold triggers. It
// walks u's topology row as core's fold does: each entry's directed index
// serves the visibility test, the estimate and the link parameters with no
// per-neighbour lookup.
func (b *BlockSync) decideMode(u int, c *blockCounters) float64 {
	lu := b.l[u]
	f := NewBlockTriggers(b.s, b.mu, b.rho)
	dyn, est := b.rt.Dyn, b.rt.Est
	peers, dirs := dyn.Row(u)
	for i, dir := range dirs {
		if !dyn.SeesAt(dir) {
			continue
		}
		v := int(peers[i])
		e, ok := est.EstimateAt(u, v, dir)
		if !ok {
			continue
		}
		f.Add(lu, e, est.Eps(dir), dyn.ParamsAt(dir).Tau)
	}
	fast, slow := f.Triggers()
	mult, isFast := core.NextMode(fast, slow, lu, b.m[u], b.mult[u], b.mu, core.Iota)
	if isFast {
		c.fast++
	} else {
		c.slow++
	}
	return mult
}

// BlockTriggers folds one node's neighbour estimates into the fast and slow
// triggers of [11]. They are AOPT's level-1 triggers (core.FastWitness1 and
// its three siblings) with κ = S and δ = S/20, each holding when some
// neighbour witnesses it and none blocks it. BlockSync and the live node
// both decide through it.
type BlockTriggers struct {
	s, delta, mu, rho          float64
	fastW, fastB, slowW, slowB bool
}

// NewBlockTriggers starts an empty fold for block size s.
func NewBlockTriggers(s, mu, rho float64) BlockTriggers {
	return BlockTriggers{s: s, delta: s / 20, mu: mu, rho: rho}
}

// Add folds in one neighbour's estimate est, of error bound eps and
// detection delay tau, against the node's logical clock lu.
func (f *BlockTriggers) Add(lu, est, eps, tau float64) {
	ahead, behind := est-lu, lu-est
	f.fastW = f.fastW || core.FastWitness1(ahead, f.s, eps)
	f.fastB = f.fastB || core.FastBlocked1(behind, f.s, eps, tau, f.mu)
	f.slowW = f.slowW || core.SlowWitness1(behind, f.s, f.delta, eps)
	f.slowB = f.slowB || core.SlowBlocked1(ahead, f.s, f.delta, eps, tau, f.mu, f.rho)
}

// Triggers returns the fast and slow triggers over the neighbours added.
func (f *BlockTriggers) Triggers() (fast, slow bool) {
	return f.fastW && !f.fastB, f.slowW && !f.slowB
}

// Logical implements runner.Algorithm.
func (b *BlockSync) Logical(u int) float64 { return b.l[u] }

// MaxEstimate implements runner.Algorithm.
func (b *BlockSync) MaxEstimate(u int) float64 { return b.m[u] }

// SetLogical supports corrupted-start experiments.
func (b *BlockSync) SetLogical(u int, v float64) {
	b.l[u] = v
	b.m[u] = v
}
