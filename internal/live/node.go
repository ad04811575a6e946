package live

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/topo"
	"repro/internal/transport"
)

// nodeState is the pure per-node synchronization state machine of the live
// mode: one node's clocks, its beacon-sample estimates, and the gradient
// fast/slow rule, with no reference to wall clocks, channels or goroutines.
// Exactly this code runs in both execution harnesses — the live cluster
// (driven by real time and real transports) and the trace replay (driven by
// the recorded inputs) — which is what makes a recorded live run replay
// byte-identically: applyTick and applyBeacon are deterministic functions of
// their recorded arguments, applied in the recorded per-node order.
//
// The step rule is the single-threshold gradient algorithm of [11]
// (baselines.BlockSync) in per-node form, through the same functions the
// simulator runs: core's flooding, Listing 3 switch and integration step,
// and BlockSync's trigger fold over neighbor estimates served by the
// node-local estimate store (estimate.LocalBeacons — the same certified
// bound as the simulator's messaging layer).
type nodeState struct {
	id   int
	l    float64 // logical clock L_u
	m    float64 // max estimate M_u
	mult float64 // current logical rate multiplier
	hw   float64 // hardware clock H_u (integrated from recorded increments)

	fast, slow uint64 // mode tick counters

	p     params
	est   *estimate.LocalBeacons
	peers []int // sorted neighbor ids
}

func newNodeState(id int, peers []int, p params) *nodeState {
	return &nodeState{
		id:   id,
		mult: 1,
		p:    p,
		est: estimate.NewLocalBeacons(estimate.MessagingConfig{
			Rho:            p.Rho,
			Mu:             p.Mu,
			BeaconInterval: p.BeaconInterval,
			TickSlop:       2 * p.Tick,
		}, p.Link),
		peers: peers,
	}
}

// params is the shared parameter block of every node (extracted from Config
// by the cluster and from the trace header by the replay).
type params struct {
	S, Rho, Mu           float64
	Tick, BeaconInterval float64
	Link                 topo.LinkParams
}

// applyBeacon ingests one delivered beacon: record the estimate sample
// (stamped with the node's current hardware clock, exactly as the
// simulator's RecordBeacon stamps hw(to)) and flood the max estimate with
// the certified-minimum transit credit.
func (ns *nodeState) applyBeacon(from int, b transport.Beacon, minTransit float64) {
	ns.est.Record(from, b.L, ns.hw, minTransit)
	if cand := core.FloodCandidate(b.M, minTransit, ns.p.Tick, ns.p.Rho); cand > ns.m {
		ns.m = cand
	}
}

// applyTick advances the node by one integration tick with hardware
// increment dh. The phase order mirrors the simulator runtime exactly —
// hardware integration first (runner.driftShard), then mode decision from
// the fresh hardware clock, then logical integration (BlockSync's
// decide/integrate phases) — so a live tick and a replayed tick perform the
// same float operations in the same order.
func (ns *nodeState) applyTick(dh float64) {
	ns.hw += dh
	ns.mult = ns.decideMode()
	ns.l, ns.m = core.Integrate(ns.l, ns.m, ns.mult, dh, (1-ns.p.Rho)/(1+ns.p.Rho))
}

// decideMode is baselines.BlockSync.decideMode in per-node form, with the
// neighbor estimates served by the node-local store.
func (ns *nodeState) decideMode() float64 {
	f := baselines.NewBlockTriggers(ns.p.S, ns.p.Mu, ns.p.Rho)
	eps, tau := ns.est.Eps(), ns.p.Link.Tau
	for _, v := range ns.peers {
		if est, ok := ns.est.Estimate(v, ns.hw); ok {
			f.Add(ns.l, est, eps, tau)
		}
	}
	fast, slow := f.Triggers()
	mult, isFast := core.NextMode(fast, slow, ns.l, ns.m, ns.mult, ns.p.Mu, core.Iota)
	if isFast {
		ns.fast++
	} else {
		ns.slow++
	}
	return mult
}

// beacon snapshots the node's send payload.
func (ns *nodeState) beacon() transport.Beacon {
	return transport.Beacon{L: ns.l, M: ns.m}
}
