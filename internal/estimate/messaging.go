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
// stores (L_sent, H_recv, certified minimum transit) and, when queried,
// advances the sample at the certified minimum logical rate:
//
//	L̃ᵛᵤ = L_sent + (1−ρ)·minTransit + (1−ρ)/(1+ρ)·(H_u(now) − H_u(recv))
//
// which is a guaranteed lower bound on L_v (the paper's η-relation, §3.1).
type Messaging struct {
	dyn *topo.Dynamic
	cfg MessagingConfig
	hw  func(int) float64
	// The latest beacon sample of each directed edge, in parallel slabs
	// indexed by the topology's directed index of (receiver, sender)
	// (topo.Dynamic.Dir). They are sized when links are declared (declares
	// are serial engine/scenario operations), so RecordBeacon — which runs
	// concurrently for distinct receivers under the sharded event drain —
	// only writes the receiver's own entries.
	smLSent, smHwAtRecv, smTransit []float64
	smValid                        []uint8
	// Misses counts estimate queries that found no certified sample. It is
	// incremented atomically: Estimate runs concurrently for distinct u
	// under the sharded tick, and an atomic sum is the one per-query effect
	// whose total stays exact (and deterministic) under any interleaving.
	Misses uint64
}

// NewMessaging creates the layer for n nodes. hw returns a node's current
// hardware clock. The sample slabs cover every link already declared on
// dyn; a declare hook grows them for later links.
func NewMessaging(n int, dyn *topo.Dynamic, hw func(int) float64, cfg MessagingConfig) *Messaging {
	m := &Messaging{dyn: dyn, cfg: cfg, hw: hw}
	m.grow()
	dyn.OnDeclare(m.onDeclare)
	return m
}

// grow sizes the sample slabs to the topology's directed-index range.
func (m *Messaging) grow() {
	n := m.dyn.DirCap()
	m.smLSent = csr.Grow(m.smLSent, n)
	m.smHwAtRecv = csr.Grow(m.smHwAtRecv, n)
	m.smTransit = csr.Grow(m.smTransit, n)
	m.smValid = csr.Grow(m.smValid, n)
}

// onDeclare starts a newly declared link with no sample in either
// direction. The link may reuse a slot Undeclare freed, or revive an
// undeclared pair; either way a sample recorded before is stale.
func (m *Messaging) onDeclare(a, b int) {
	m.grow()
	dir, _ := m.dyn.Dir(a, b)
	m.smValid[dir] = 0
	m.smValid[dir^1] = 0
}

// RecordBeacon ingests a delivered beacon; the runner calls this for every
// beacon delivery.
func (m *Messaging) RecordBeacon(to, from int, b transport.Beacon, d transport.Delivery) {
	dir, ok := m.dyn.Dir(to, from)
	if !ok {
		// A beacon on an undeclared link is unobservable: Estimate requires
		// a declared link, and a later declare starts without a sample.
		// Dropping it keeps this concurrent path free of structural
		// mutation.
		return
	}
	m.smLSent[dir] = b.L
	m.smHwAtRecv[dir] = m.hw(to)
	m.smTransit[dir] = d.MinTransit
	m.smValid[dir] = 1
}

// Invalidate drops the sample for a directed edge (called on edge loss, so a
// stale pre-outage sample is never reused after a reappearance). It is one
// probe of u's topology row — O(deg u), independent of the network size,
// and allocation-free — so EdgeDown storms (churn waves, partitions) cost
// one short sorted scan per lost directed edge;
// BenchmarkMessagingInvalidate pins both properties across network sizes.
func (m *Messaging) Invalidate(u, v int) {
	if dir, ok := m.dyn.Dir(u, v); ok {
		m.smValid[dir] = 0
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

// advanceSample advances a stored beacon sample to the present: credit the
// certified minimum transit (minus slop for discrete integration) and the
// elapsed receiver hardware time, both at guaranteed-minimum logical rates.
// This is the η-relation estimate both Messaging and LocalBeacons serve.
func advanceSample(cfg MessagingConfig, lSent, minTransit, ageHW float64) float64 {
	rho := cfg.Rho
	credit := minTransit - cfg.TickSlop
	if credit < 0 {
		credit = 0
	}
	return lSent + (1-rho)*credit + (1-rho)/(1+rho)*ageHW
}

// Estimate implements Layer.
func (m *Messaging) Estimate(u, v int) (float64, bool) {
	dir, ok := m.dyn.Dir(u, v)
	if !ok || !m.dyn.SeesAt(dir) {
		return 0, false
	}
	return m.EstimateAt(u, v, dir)
}

// EstimateAt implements Layer: slab loads at dir, with no lookup.
func (m *Messaging) EstimateAt(u, _ int, dir int32) (float64, bool) {
	if m.smValid[dir] == 0 {
		atomic.AddUint64(&m.Misses, 1)
		return 0, false
	}
	p := m.dyn.ParamsAt(dir)
	ageHW := m.hw(u) - m.smHwAtRecv[dir]
	if ageHW < 0 || ageHW > maxSampleAgeHW(m.cfg, p) {
		atomic.AddUint64(&m.Misses, 1)
		return 0, false
	}
	// The transit credit inside advanceSample covers only fully elapsed
	// integration ticks (clocks advance in steps); TickSlop compensates.
	est := advanceSample(m.cfg, m.smLSent[dir], m.smTransit[dir], ageHW)
	if m.cfg.Centered {
		est += oneSidedBound(m.cfg, p) / 2
	}
	return est, true
}

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
func (m *Messaging) Eps(u, v int) float64 {
	p, ok := m.dyn.Params(u, v)
	if !ok {
		return math.Inf(1)
	}
	b := oneSidedBound(m.cfg, p)
	if m.cfg.Centered {
		return b / 2
	}
	return b
}

// ConcurrentQueries implements ConcurrentLayer: a query for node u reads
// only u's own samples, u's hardware clock and the (tick-stable) topology; the sole shared write is the atomic miss counter. Samples are
// written by beacon deliveries and invalidations, which are engine events —
// never inside an integration tick.
func (m *Messaging) ConcurrentQueries() bool { return true }

// NodeLocalQueries implements NodeLocalLayer: everything Estimate,
// EstimateAt and Eps read for querying node u — u's samples, the hardware
// clock hw(u), link parameters — is u-local or tick-stable, so queries stay correct while
// integration ticks are applied lazily per node (tick-crossing windows).
func (m *Messaging) NodeLocalQueries() bool { return true }
