package core

// Quiet-node certificates (DESIGN.md §Trigger evaluation). A node's fold
// inputs move at bounded rates, so after a fold in which every level-1 guard
// failed, the node can compute a value of its own hardware clock up to which
// every guard keeps failing.
//
// A decide of node u reads H = HW[u] after the tick's increment dh and
// L = l[u] before it, on the barrier Step path and the crossed-tick StepNode
// path alike, and L advances by between dh and (1+µ)·dh per tick. So from a
// fold at (H₀, L₀) with increment dh₀, the increments L has taken by a later
// decide at H sum to at most H−H₀+dh₀.
//
// Messaging estimates are affine in H with slope r = Messaging.Rate() ≤ 1,
// so over decides on the same samples
//
//	L−est rises by at most (1+µ)·dh₀ + (1+µ−r)·(H−H₀),
//	est−L rises by at most the later tick's increment, ≤ MaxIncrement,
//
// and the certificate is capped at the earliest sample expiry, so no covered
// decide misses an estimate. It holds under every drift schedule.
//
// An oracle estimate is the neighbour's true clock plus an error the Oracle
// clamps to ±ε. While every node's hardware rate lies in [lo, hi]
// (runner.RateEnvelope), a neighbour's clock gains at most (1+µ)·hi/lo
// times u's hardware increment per tick and at least lo/hi of it, so
//
//	est−L rises by at most ((1+µ)·hi/lo − 1)·(H−H₀+dh₀) + 2ε,
//	L−est rises by at most ((1+µ) − lo/hi)·(H−H₀+dh₀) + 2ε,
//
// and the certificate is capped two ticks' worth of hardware time before the
// end of the constant-rate stretch the envelope holds for. A certified decide
// skips the error draws the fold would have made (Oracle.SkipQueries): as
// many as the fold's queries, a count that stays fixed while the
// certificate holds, because no edge leaves or joins the fold meanwhile.
//
// On both layers the certificate is the largest H for which both sides stay
// below the smallest level-1 thresholds of any edge class (aheadThr,
// behindThr). An edge still inserting caps it at the H at which L could
// reach the edge's level-1 time (joinCap). It is refused while an edge has a
// decaying weight or misses its estimate.
//
// Every fold sets it from its own operands (evalTriggers). OnBeacon lowers a
// messaging certificate for the new sample (lowerCert), where L_u already
// holds the value the next decide reads, so the behind bound there carries
// no dh₀ term. Insertion agreement (computeInsertionTimes), an edge's loss, a
// pre-inserted edge's appearance and SetLogical clear it.

import (
	"math"

	"repro/internal/estimate"
	"repro/internal/sim"
)

// initCerts allocates the certificate slab when the estimate layer is the
// messaging one, whose slope r must not exceed 1 for the ahead bound, or an
// oracle whose error policy can skip draws, which also gets the query-count
// slab. The messaging layer must read node clocks through rt.Hardware, as
// every caller in the repository builds it: a certificate is a time on
// rt.HW[u].
func (a *Algorithm) initCerts() {
	switch est := a.rt.Est.(type) {
	case *estimate.Messaging:
		if !(est.Rate() <= 1) {
			return
		}
		a.msg = est
		a.aheadGrowth = a.rt.MaxIncrement()
		a.behindTime = 1 / (1 + a.p.Mu - est.Rate())
	case *estimate.Oracle:
		if !est.Skippable() {
			return
		}
		a.orc = est
		a.queries = make([]uint32, a.n)
	default:
		return
	}
	a.cert = make([]float64, a.n)
	for u := range a.cert {
		a.cert[u] = math.Inf(-1)
	}
}

// certLayer returns the layer messaging certificates read when est, the
// layer a fold is about to query, is the one resolved at Init, and nil
// otherwise.
func (a *Algorithm) certLayer(est estimate.Layer) *estimate.Messaging {
	if a.msg == nil || est != estimate.Layer(a.msg) {
		return nil
	}
	return a.msg
}

// oracleLayer is certLayer for oracle certificates, which also need this
// tick's rate envelope to admit them.
func (a *Algorithm) oracleLayer(est estimate.Layer) *estimate.Oracle {
	if a.orc == nil || !a.env.ok || est != estimate.Layer(a.orc) {
		return nil
	}
	return a.orc
}

// certified reports whether node u's certificate covers a decide at its
// current hardware time. It inlines into decideMode; a nil slab (estimates
// without certificates) covers nothing.
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
// rule.go, and raises swing to twice its ε. An est−L_u below both ahead
// thresholds fails FastWitness1 and SlowBlocked1; an L_u−est below both
// behind thresholds fails FastBlocked1 and SlowWitness1. A NaN threshold is
// skipped: its guard never holds.
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
	a.swing = max(a.swing, 2*cls.eps)
}

// envelope is what oracle folds read of a barrier tick's rate envelope
// (runner.RateEnvelope): whether it admits certificates, the growth of
// est−L_u and of L_u−est per unit of H_u, and the hardware time from the
// fold to two ticks before the end of the constant-rate stretch.
type envelope struct {
	ok                     bool
	ahead, behind, stretch float64
}

// readEnvelope derives the envelope of the barrier tick at t. Its rates hold
// on every tick before the stretch ends, and the last such tick lies less
// than a tick length (and its rounding) before the end, so u's hardware
// clock gains more than lo·(until−t−2·Tick) from the fold through that
// tick. A decide at a hardware time below that value therefore folds only
// ticks inside the stretch. A stretch that is empty or a lowest rate that
// is not positive admits no certificate.
func (a *Algorithm) readEnvelope(t sim.Time) envelope {
	lo, hi, until := a.rt.RateEnvelope()
	if !(lo > 0 && until > t) {
		return envelope{}
	}
	mu := a.p.Mu
	return envelope{
		ok:      true,
		ahead:   (1+mu)*hi/lo - 1,
		behind:  1 + mu - lo/hi,
		stretch: lo * (until - t - 2*a.rt.Tick()),
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

// oracleQuery is certQuery for oracle folds: it gathers the extreme
// estimates and counts the queries, each of which draws one error.
type oracleQuery struct {
	*estimate.Oracle
	lo, hi float64
	n      uint32
}

// EstimateAt implements estimate.Layer for the fold.
func (q *oracleQuery) EstimateAt(u, v int, dir int32) (float64, bool) {
	e, ok := q.Oracle.EstimateAt(u, v, dir)
	q.lo, q.hi, q.n = min(q.lo, e), max(q.hi, e), q.n+1
	return e, ok
}

// certMargin absorbs the rounding of a certificate's operands and of the
// thresholds, at hardware time h and logical time lu.
func certMargin(h, lu float64) float64 {
	return 1e-9 * (1 + math.Abs(lu) + math.Abs(h))
}

// quietUntil returns the messaging certificate of a node at hardware time h
// and logical time lu whose largest est−L_u is ahead and whose L_u−est, with
// the growth of L_u the next decide has already banked added, is at most
// behind, capped at hardware time until; −Inf when there is none.
func (a *Algorithm) quietUntil(h, lu, ahead, behind, until float64) float64 {
	margin := certMargin(h, lu)
	slack := a.behindThr - behind - margin
	if !(ahead+a.aheadGrowth+margin < a.aheadThr && slack > 0) {
		return math.Inf(-1)
	}
	return min(h+slack*a.behindTime, until)
}

// oracleQuietUntil returns the oracle certificate of a node that folded at
// hardware time h, with increment dh and logical time lu, and found its
// largest est−L_u at ahead and its largest L_u−est at behind; −Inf when
// there is none. Each side grows at its envelope rate per unit of H−h+dh
// and may swing by 2ε on a fresh error.
func (a *Algorithm) oracleQuietUntil(h, dh, lu, ahead, behind, join float64) float64 {
	margin := certMargin(h, lu)
	slackAhead := a.aheadThr - ahead - a.swing - margin
	slackBehind := a.behindThr - behind - a.swing - margin
	if !(slackAhead > 0 && slackBehind > 0) {
		return math.Inf(-1)
	}
	c := h - dh + min(slackAhead/a.env.ahead, slackBehind/a.env.behind)
	return min(c, h+a.env.stretch, a.joinCap(h, dh, lu, join))
}

// joinCap returns the last hardware time up to which a node that folded at
// hardware time h, with increment dh and logical time lu, keeps L_u below
// join, the earliest level-1 time of its inserting edges: L_u gains at most
// (1+µ)·(H−h+dh) by a decide at H. +Inf when no edge is inserting.
func (a *Algorithm) joinCap(h, dh, lu, join float64) float64 {
	if join == math.Inf(1) {
		return join
	}
	return h - dh + (join-lu-certMargin(h, lu))/(1+a.p.Mu)
}

// lowerCert lowers node u's live messaging certificate for the sample a
// beacon has just left at u's directed index dir, in O(1) and without
// reading an edge record: the query runs at age 0, so it never misses.
func (a *Algorithm) lowerCert(u int, dir int32) {
	msg := a.certLayer(a.rt.Est)
	if msg == nil {
		return
	}
	e, until, ok := msg.EstimateUntil(u, dir)
	if !ok {
		until = math.Inf(-1)
	}
	lu := a.l[u]
	a.cert[u] = min(a.cert[u], a.quietUntil(a.rt.HW[u], lu, e-lu, lu-e, until))
}
