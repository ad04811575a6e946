package core

// Quiet-node certificates (DESIGN.md §Trigger evaluation). On messaging
// estimates a node's fold inputs move at bounded rates between beacons, so
// after a fold in which every level-1 guard failed, the node can compute a
// value of its own hardware clock up to which every guard keeps failing.
//
// A decide of node u reads H = HW[u] after the tick's increment dh and
// L = l[u] before it, on the barrier Step path and the crossed-tick StepNode
// path alike. A served messaging estimate is affine in H with slope
// r = Messaging.Rate() ≤ 1, and L advances by between dh and (1+µ)·dh per
// tick. So from a fold at (H₀, L₀) with increment dh₀ to a later decide at
// (H, L) on the same samples:
//
//	L−est rises by at most (1+µ)·dh₀ + (1+µ−r)·(H−H₀),
//	est−L rises by at most the later tick's increment, ≤ MaxIncrement.
//
// The certificate is the largest H for which both stay below the smallest
// level-1 thresholds of any edge class (aheadThr, behindThr), capped at the
// earliest sample expiry, so no covered decide misses an estimate. It is a
// time on u's own hardware clock, so it holds under every drift schedule.
//
// Three sites maintain it. Every fold sets it from its own operands
// (evalTriggers → quietUntil). OnBeacon lowers it for the new sample
// (lowerCert), where L_u already holds the value the next decide reads, so
// the behind bound there carries no dh₀ term. Insertion agreement
// (computeInsertionTimes), a pre-inserted edge's appearance and SetLogical
// clear it. An edge that leaves the fold only removes a witness or blocker.
// The fold refuses a certificate while an edge is still inserting, has a
// decaying weight, or misses its estimate.

import (
	"math"

	"repro/internal/estimate"
)

// initCerts allocates the certificate slab when the estimate layer is the
// messaging one, whose slope r must not exceed 1 for the ahead bound. The
// layer must read node clocks through rt.Hardware, as every caller in the
// repository builds it: a certificate is a time on rt.HW[u].
func (a *Algorithm) initCerts() {
	m, ok := a.rt.Est.(*estimate.Messaging)
	if !ok || !(m.Rate() <= 1) {
		return
	}
	a.msg = m
	a.cert = make([]float64, a.n)
	for u := range a.cert {
		a.cert[u] = math.Inf(-1)
	}
	a.aheadGrowth = a.rt.MaxIncrement()
	a.behindTime = 1 / (1 + a.p.Mu - m.Rate())
}

// certLayer returns the layer certificates read when est, the layer a fold
// is about to query, is the one resolved at Init, and nil otherwise.
func (a *Algorithm) certLayer(est estimate.Layer) *estimate.Messaging {
	if a.msg == nil || est != estimate.Layer(a.msg) {
		return nil
	}
	return a.msg
}

// certified reports whether node u's certificate covers a decide at its
// current hardware time. It inlines into decideMode; a nil slab (estimates
// other than messaging) covers nothing.
func (a *Algorithm) certified(u int) bool {
	return u < len(a.cert) && a.rt.HW[u] <= a.cert[u]
}

// clearCert drops node u's certificate, so its next decide folds.
func (a *Algorithm) clearCert(u int) {
	if u < len(a.cert) {
		a.cert[u] = math.Inf(-1)
	}
}

// noteThresholds lowers aheadThr and behindThr to a newly interned class's
// level-1 thresholds, each written as its guard's expression at s = 1 in
// rule.go. An est−L_u below both ahead thresholds fails FastWitness1 and
// SlowBlocked1; an L_u−est below both behind thresholds fails FastBlocked1
// and SlowWitness1. A NaN threshold is skipped: its guard never holds.
func (a *Algorithm) noteThresholds(cls edgeClass) {
	mu, rho := a.p.Mu, a.p.Rho
	for _, t := range [2]float64{cls.kappa - cls.eps, 1.5*cls.kappa + cls.delta + cls.eps + mu*(1+rho)*cls.tau} {
		if t < a.aheadThr {
			a.aheadThr = t
		}
	}
	for _, t := range [2]float64{cls.kappa + 2*mu*cls.tau + cls.eps, 1.5*cls.kappa - cls.delta - cls.eps} {
		if t < a.behindThr {
			a.behindThr = t
		}
	}
}

// certQuery is the estimate layer a messaging fold reads through: it
// answers EstimateAt from Messaging.EstimateUntil and gathers the
// certificate's operands on the way, the extreme estimates and the earliest
// sample expiry. So the fold loop, which every layer runs, carries no
// certificate work beyond its refusal tests. Each shard's counter block
// holds one, so concurrent folds never share it.
type certQuery struct {
	*estimate.Messaging
	lo, hi, until float64
}

// EstimateAt implements estimate.Layer for the fold.
func (q *certQuery) EstimateAt(u, _ int, dir int32) (float64, bool) {
	e, until, ok := q.EstimateUntil(u, dir)
	q.lo, q.hi, q.until = min(q.lo, e), max(q.hi, e), min(q.until, until)
	return e, ok
}

// quietUntil returns the certificate of a node at hardware time h and
// logical time lu whose largest est−L_u is ahead and whose L_u−est, with the
// growth of L_u the next decide has already banked added, is at most behind,
// over samples served until hardware time until; −Inf when there is none.
// The margin absorbs the rounding of the operands and of the thresholds.
func (a *Algorithm) quietUntil(h, lu, ahead, behind, until float64) float64 {
	margin := 1e-9 * (1 + math.Abs(lu) + math.Abs(h))
	slack := a.behindThr - behind - margin
	if !(ahead+a.aheadGrowth+margin < a.aheadThr && slack > 0) {
		return math.Inf(-1)
	}
	return min(h+slack*a.behindTime, until)
}

// lowerCert lowers node u's live certificate for the sample a beacon from v
// has just left, in O(1) and without reading an edge record: the query runs
// at age 0, so it never misses.
func (a *Algorithm) lowerCert(u, v int) {
	msg := a.certLayer(a.rt.Est)
	dir, ok := a.rt.Dyn.Dir(u, v)
	if msg == nil || !ok {
		return
	}
	e, until, ok := msg.EstimateUntil(u, dir)
	if !ok {
		until = math.Inf(-1)
	}
	lu := a.l[u]
	a.cert[u] = min(a.cert[u], a.quietUntil(a.rt.HW[u], lu, e-lu, lu-e, until))
}
