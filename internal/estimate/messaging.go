package estimate

import (
	"math"
	"sync/atomic"

	"repro/internal/csr"
	"repro/internal/topo"
	"repro/internal/transport"
)

// MessagingConfig carries the protocol parameters the certified error bound
// depends on.
type MessagingConfig struct {
	// Rho is the hardware clock drift bound ρ.
	Rho float64
	// Mu is the logical rate boost µ (logical rates lie in
	// [1−ρ, (1+ρ)(1+µ)]).
	Mu float64
	// BeaconInterval is the real-time period between beacons per node.
	BeaconInterval float64
	// TickSlop is the extra error allowed for discrete integration (one
	// tick of the fastest logical rate); fold dt·(1+ρ)(1+µ) in here.
	TickSlop float64
	// Centered shifts estimates up by half the one-sided error bound so the
	// certified error becomes symmetric and half as large.
	Centered bool
}

// Messaging is the protocol-based estimate layer. The receiver of a beacon
// advances the last sample at the certified minimum logical rate:
//
//	L̃ᵛᵤ = L_sent + (1−ρ)·minTransit + (1−ρ)/(1+ρ)·(H_u(now) − H_u(recv))
//
// which is a guaranteed lower bound on L_v (the paper's η-relation, §3.1).
// The estimate is affine in the receiver's hardware clock, and everything
// but the age term is fixed at receipt, so the receiver stores the sample
// pre-advanced (see sample) and a query is one multiply-add.
type Messaging struct {
	dyn *topo.Dynamic
	cfg MessagingConfig
	hw  func(int) float64
	// mRate is (1−ρ)/(1+ρ), the rate a sample advances at, divided once
	// here rather than in every query.
	mRate float64
	// The latest beacon sample of each directed edge, indexed by the
	// topology's directed index of (receiver, sender) (topo.Dynamic.Dir).
	// The slab is sized when links are declared (declares are serial
	// engine/scenario operations), so RecordBeacon — which runs
	// concurrently for distinct receivers under the sharded event drain —
	// only writes the receiver's own entries.
	samples []sample
	// Misses counts estimate queries that found no certified sample. It is
	// incremented atomically: Estimate runs concurrently for distinct u
	// under the sharded tick, and an atomic sum is the one per-query effect
	// whose total stays exact (and deterministic) under any interleaving.
	Misses uint64
}

// sample is one directed edge's latest beacon, stored pre-advanced: base is
// the estimate at receipt, L_sent plus the transit credit (sampleBase), so
// the estimate at receiver hardware age a is base + mRate·a while
// 0 ≤ a ≤ maxSampleAgeHW of the link's parameters. The window is derived
// at each query, not stored (see RecordBeacon). An entry that holds no
// sample has hwAtRecv = +Inf, so every age reads −Inf and misses.
type sample struct {
	base, hwAtRecv float64
}

// NewMessaging creates the layer for n nodes. hw returns a node's current
// hardware clock. The sample slab covers every link already declared on
// dyn; a declare hook grows it for later links.
func NewMessaging(n int, dyn *topo.Dynamic, hw func(int) float64, cfg MessagingConfig) *Messaging {
	m := &Messaging{dyn: dyn, cfg: cfg, hw: hw, mRate: (1 - cfg.Rho) / (1 + cfg.Rho)}
	m.grow()
	dyn.OnDeclare(m.grow)
	return m
}

// grow sizes the sample slab to the topology's directed-index range; new
// entries hold no sample. It is the topology's declare hook: a newly
// declared link takes the next two indices, which no pair used before.
func (m *Messaging) grow() {
	old := len(m.samples)
	m.samples = csr.Grow(m.samples, m.dyn.DirCap())
	for i := old; i < len(m.samples); i++ {
		m.samples[i].hwAtRecv = math.Inf(1)
	}
}

// RecordBeacon ingests a delivered beacon; the runner calls this for every
// beacon delivery. The sample lands at d.Dir, the receiver's directed index
// of (to, from), which the transport resolved at send time. The sample's
// age bound is not stored: a query derives it from the link's parameters,
// and that equals the bound at receipt, because the runner delivers a
// beacon only to a receiver that sees the link, topo refuses new
// parameters for a visible link, and edge loss invalidates the receiver's
// sample (Invalidate), so the parameters cannot change while the sample is
// served.
func (m *Messaging) RecordBeacon(to, _ int, b transport.Beacon, d transport.Delivery) {
	m.samples[d.Dir] = sample{base: sampleBase(m.cfg, b.L, d.MinTransit), hwAtRecv: m.hw(to)}
}

// Invalidate drops the sample for a directed edge (called on edge loss, so a
// stale pre-outage sample is never reused after a reappearance). It is one
// probe of u's topology row — O(deg u), independent of the network size,
// and allocation-free — so EdgeDown storms (churn waves, partitions) cost
// one short sorted scan per lost directed edge;
// BenchmarkMessagingInvalidate pins both properties across network sizes.
func (m *Messaging) Invalidate(u, v int) {
	if dir, ok := m.dyn.Dir(u, v); ok {
		m.samples[dir].hwAtRecv = math.Inf(1)
	}
}

// maxSampleAgeHW returns the maximum hardware-clock age a certified sample
// may have: one beacon interval plus delay jitter, at the fastest hardware
// rate, plus slop. Package-level (rather than a method) because the
// node-local LocalBeacons store applies the identical rule.
func maxSampleAgeHW(cfg MessagingConfig, p topo.LinkParams) float64 {
	real := cfg.BeaconInterval + p.Uncertainty + cfg.TickSlop
	return real * (1 + cfg.Rho)
}

// sampleBase is a beacon sample's estimate at receipt: L_sent plus the
// certified minimum transit (minus slop for discrete integration, since
// clocks advance in steps), credited at the guaranteed-minimum logical rate.
func sampleBase(cfg MessagingConfig, lSent, minTransit float64) float64 {
	credit := minTransit - cfg.TickSlop
	if credit < 0 {
		credit = 0
	}
	return lSent + (1-cfg.Rho)*credit
}

// advanceSample advances a beacon sample to the present: its base plus the
// elapsed receiver hardware time at the guaranteed-minimum logical rate.
// This is the η-relation estimate both Messaging and LocalBeacons serve;
// LocalBeacons evaluates it whole at query time, Messaging stores the base
// at receipt, and Go's left-to-right sum makes the two bit-identical.
func advanceSample(cfg MessagingConfig, lSent, minTransit, ageHW float64) float64 {
	rho := cfg.Rho
	return sampleBase(cfg, lSent, minTransit) + (1-rho)/(1+rho)*ageHW
}

// Estimate implements Layer.
func (m *Messaging) Estimate(u, v int) (float64, bool) {
	dir, ok := m.dyn.Dir(u, v)
	if !ok || !m.dyn.SeesAt(dir) {
		return 0, false
	}
	return m.EstimateAt(u, v, dir)
}

// EstimateAt implements Layer: one sample load at dir, with no lookup, and
// the window derived from the link's parameters. The Centered offset is
// added last, as LocalBeacons adds it, rather than folded into the stored
// base, which would round the sum differently.
func (m *Messaging) EstimateAt(u, _ int, dir int32) (float64, bool) {
	s, p := &m.samples[dir], m.dyn.ParamsAt(dir)
	ageHW := m.hw(u) - s.hwAtRecv
	if !(ageHW >= 0 && ageHW <= maxSampleAgeHW(m.cfg, p)) {
		atomic.AddUint64(&m.Misses, 1)
		return 0, false
	}
	est := s.base + m.mRate*ageHW
	if m.cfg.Centered {
		est += oneSidedBound(m.cfg, p) / 2
	}
	return est, true
}

// EstimateUntil is EstimateAt plus until, a conservative last hardware time
// of u at which the same sample is still served: every query at
// hw(u) ≤ until passes the age test, until a new beacon or an invalidation
// replaces the sample. until sits a rounding margin below the window's end,
// hwAtRecv + maxSampleAgeHW, so the inclusive float test of the age holds
// for each such query. The estimate is EstimateAt's own answer, so the two
// agree bit for bit.
func (m *Messaging) EstimateUntil(u int, dir int32) (est, until float64, ok bool) {
	if est, ok = m.EstimateAt(u, 0, dir); !ok {
		return 0, 0, false
	}
	end := m.samples[dir].hwAtRecv + maxSampleAgeHW(m.cfg, m.dyn.ParamsAt(dir))
	return est, end - 1e-9*(1+math.Abs(end)), true
}

// Rate is the slope of every estimate in the receiver's hardware clock,
// (1−ρ)/(1+ρ) of this layer's ρ: between beacons, a served estimate
// advances by exactly Rate times the querying node's hardware increment,
// up to rounding.
func (m *Messaging) Rate() float64 { return m.mRate }

// oneSidedBound is the worst-case L_v − L̃ᵛᵤ for an uncentered estimate:
// actual transit up to Delay at the fastest logical rate versus credit for
// only (1−ρ)·(Delay−Uncertainty), plus the staleness window during which v
// may run at (1+ρ)(1+µ) while the estimate advances at (1−ρ)²/(1+ρ).
func oneSidedBound(cfg MessagingConfig, p topo.LinkParams) float64 {
	rho, mu := cfg.Rho, cfg.Mu
	fast := (1 + rho) * (1 + mu)
	slowAdvance := (1 - rho) * (1 - rho) / (1 + rho)
	minCredit := p.Delay - p.Uncertainty - cfg.TickSlop
	if minCredit < 0 {
		minCredit = 0
	}
	transitErr := fast*p.Delay - (1-rho)*minCredit
	staleWindow := cfg.BeaconInterval + p.Uncertainty + cfg.TickSlop
	return transitErr + (fast-slowAdvance)*staleWindow
}

// Eps implements Layer.
func (m *Messaging) Eps(dir int32) float64 {
	b := oneSidedBound(m.cfg, m.dyn.ParamsAt(dir))
	if m.cfg.Centered {
		return b / 2
	}
	return b
}
