package estimate

import (
	"repro/internal/topo"
)

// LocalBeacons is the node-local face of the messaging estimate layer: the
// beacon-sample store of exactly one node, serving Section 3.1 estimates for
// that node's neighbors with the same sample-advance rule and the same
// certified error bound as Messaging. It exists for the live deployment mode
// (internal/live), where every node is an isolated goroutine or process and
// there is no shared structure to index by receiver — each node owns its
// LocalBeacons outright and touches it from its own event loop only, so the
// store needs no locks, no CSR rows and no concurrency contract.
//
// The estimate math is shared with Messaging (sampleBase, oneSidedBound,
// maxSampleAgeHW), not duplicated. Messaging stores each sample
// pre-advanced, while this store keeps the raw sample and evaluates
// advanceSample whole at query time, so it is also the query-time reference
// for Messaging's record: TestLocalBeaconsMatchesMessaging pins the two
// layers to identical outputs for identical inputs, which is what makes
// live-mode traces comparable to simulator runs.
type LocalBeacons struct {
	cfg  MessagingConfig
	link topo.LinkParams
	// peers and samples are parallel, sorted by peer id. Node degree is
	// small and updates are rare; a sorted slice beats a map here for both
	// memory and the deterministic iteration the replay fingerprint needs.
	peers   []int
	samples []localSample
}

type localSample struct {
	lSent      float64
	hwAtRecv   float64
	minTransit float64
	valid      bool
}

// NewLocalBeacons builds the store for one node whose links all share the
// given parameters (the live mode's uniform-link model).
func NewLocalBeacons(cfg MessagingConfig, link topo.LinkParams) *LocalBeacons {
	return &LocalBeacons{cfg: cfg, link: link}
}

// find returns the index of peer in the sorted peer slice, or the insertion
// point with ok=false.
func (l *LocalBeacons) find(peer int) (int, bool) {
	lo, hi := 0, len(l.peers)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.peers[mid] < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l.peers) && l.peers[lo] == peer
}

// Record ingests a delivered beacon from peer: the sender's logical clock at
// send, the receiver's hardware clock at receipt, and the link's certified
// minimum transit.
func (l *LocalBeacons) Record(peer int, lSent, hwAtRecv, minTransit float64) {
	i, ok := l.find(peer)
	if !ok {
		l.peers = append(l.peers, 0)
		l.samples = append(l.samples, localSample{})
		copy(l.peers[i+1:], l.peers[i:])
		copy(l.samples[i+1:], l.samples[i:])
		l.peers[i] = peer
	}
	l.samples[i] = localSample{lSent: lSent, hwAtRecv: hwAtRecv, minTransit: minTransit, valid: true}
}

// Invalidate drops the sample for peer (edge loss), so a stale pre-outage
// sample is never reused after a reappearance.
func (l *LocalBeacons) Invalidate(peer int) {
	if i, ok := l.find(peer); ok {
		l.samples[i].valid = false
	}
}

// Estimate returns the owner's current estimate of peer's logical clock,
// given the owner's current hardware clock. ok is false when no beacon has
// arrived yet or the last sample is too old to stay certified — the same
// staleness gate as Messaging.Estimate.
func (l *LocalBeacons) Estimate(peer int, hwNow float64) (float64, bool) {
	i, ok := l.find(peer)
	if !ok || !l.samples[i].valid {
		return 0, false
	}
	sm := &l.samples[i]
	ageHW := hwNow - sm.hwAtRecv
	if ageHW < 0 || ageHW > maxSampleAgeHW(l.cfg, l.link) {
		return 0, false
	}
	est := advanceSample(l.cfg, sm.lSent, sm.minTransit, ageHW)
	if l.cfg.Centered {
		est += oneSidedBound(l.cfg, l.link) / 2
	}
	return est, true
}

// Eps returns the certified error bound of every estimate this store serves
// (uniform links, so one figure covers all peers).
func (l *LocalBeacons) Eps() float64 {
	b := oneSidedBound(l.cfg, l.link)
	if l.cfg.Centered {
		return b / 2
	}
	return b
}

// SampleCount returns how many peers currently hold a certified-eligible
// sample (diagnostic; the live daemon's stats endpoint reports it).
func (l *LocalBeacons) SampleCount() int {
	n := 0
	for i := range l.samples {
		if l.samples[i].valid {
			n++
		}
	}
	return n
}
