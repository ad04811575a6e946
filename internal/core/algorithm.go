package core

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/transport"
)

// insertEdgeMsg is the handshake payload of Listing 1: the agreed logical
// start time L_ins and the global skew estimate the insertion uses.
type insertEdgeMsg struct {
	LIns   float64
	GTilde float64
}

// Algorithm is the AOPT implementation; it satisfies runner.Algorithm.
type Algorithm struct {
	p  Params
	rt *runner.Runtime
	n  int

	l    []float64 // logical clocks L_u
	m    []float64 // max estimates M_u
	mult []float64 // current rate multiplier (1 or 1+µ)

	// mRate is (1−ρ)/(1+ρ), Integrate's rate for an M_u ahead of L_u,
	// divided once here rather than for every node step.
	mRate float64

	// Edge records (Section 4.3.2; see soa.go): parallel slabs indexed by
	// the topology's directed index of (node, peer), and the per-edge
	// constants interned in classes.
	classes   []edgeClass
	classIdx  map[edgeClass]int32
	recClass  []int32
	recFlags  []uint8
	recSince  []float64 // upSince
	recLAtUp  []float64
	recT0     []float64
	recInsDur []float64
	recKappa0 []float64
	recCheck  []sim.Handle

	minKappa float64
	sMax     int

	// Quiet-node certificates (cert.go). cert[u] is a value of u's hardware
	// clock up to which u's decide is known to be NextMode(false, false, …)
	// with every estimate served, so decideMode skips the fold while
	// HW[u] ≤ cert[u]. The slab exists only when the estimate layer at Init
	// is the messaging one (msg), whose estimates are affine in the querying
	// node's hardware clock, or an oracle whose error draws can be skipped
	// (orc); other layers fold every tick. aheadThr and behindThr are the
	// smallest level-1 thresholds on est−L_u and L_u−est over all interned
	// edge classes, and swing is twice their largest ε. On messaging,
	// aheadGrowth bounds the rise of est−L_u over covered decides, and
	// behindTime converts slack on L_u−est into hardware time. On the
	// oracle, queries[u] is the number of estimates u's last fold drew,
	// which each certified decide skips, and env is the tick's rate
	// envelope.
	msg         *estimate.Messaging
	orc         *estimate.Oracle
	cert        []float64
	queries     []uint32
	aheadThr    float64
	behindThr   float64
	swing       float64
	aheadGrowth float64
	behindTime  float64
	env         envelope

	// deltaFraction positions δ_e inside its legal range
	// (0, κ/2−2ε−2µτ); the default 0.5 is the midpoint. Values ≥ 1 violate
	// the range and break Lemma 5.3 — settable only through
	// OverrideDeltaFraction for the E12 ablation.
	deltaFraction float64

	// Sharded-tick machinery: Step fans its two phases over the runtime's
	// tick shards (see Step). shardCtr gives each shard a private counter
	// block; decideFn/integrateFn are method values built once in Init so
	// the per-tick fan-out never allocates; dHTick carries the current
	// tick's hardware increments into the phase bodies.
	shardCtr    []modeCounters
	decideFn    func(shard, lo, hi int)
	integrateFn func(shard, lo, hi int)
	dHTick      []float64

	// evCtr mirrors shardCtr for the lazily applied ticks of tick-crossing
	// event windows (runner.NodeStepper): one private counter block per
	// *event* shard, folded by FinishTick. Commutative uint64 sums keyed by
	// the node's fixed event shard keep the totals byte-identical no matter
	// whether a window event or the completion phase steps a node.
	evCtr []modeCounters

	// Counters (diagnostics; tests assert on several).
	FastTicks        uint64 // node-ticks spent in fast mode
	SlowTicks        uint64 // node-ticks spent in slow mode
	TriggerConflicts uint64 // ticks where both triggers held (must stay 0, Lemma 5.3)
	MissingEstimates uint64 // trigger evaluations lacking an estimate
	Insertions       uint64 // completed computeInsertionTimes calls
	HandshakeAborts  uint64 // handshake checks that found the edge gone

	certTicks uint64 // node-ticks decided under a certificate, without the fold
}

// modeCounters is one shard's private tally for a tick phase; Step folds the
// blocks into the public counters after the barrier, in shard order, so the
// totals are byte-identical to the serial tick's. It also holds the shard's
// certificate queries, the estimate layers its messaging and oracle folds
// read through. The padding keeps adjacent shards' hot words on separate
// cache lines.
type modeCounters struct {
	fast, slow, conflicts, missing, cert uint64
	q                                    certQuery
	oq                                   oracleQuery
	_                                    [7]uint64
}

// count tallies one node-tick in the mode NextMode chose.
func (c *modeCounters) count(fast bool) {
	if fast {
		c.fast++
	} else {
		c.slow++
	}
}

var _ runner.Algorithm = (*Algorithm)(nil)

// New constructs the algorithm; parameters are validated and defaulted.
func New(p Params) (*Algorithm, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Algorithm{
		p: p, minKappa: math.Inf(1), deltaFraction: 0.5, mRate: (1 - p.Rho) / (1 + p.Rho),
		aheadThr: math.Inf(1), behindThr: math.Inf(1),
	}, nil
}

// MustNew is New for tests and examples with known-good parameters.
func MustNew(p Params) *Algorithm {
	a, err := New(p)
	if err != nil {
		panic(fmt.Sprintf("core: invalid params: %v", err))
	}
	return a
}

// Name implements runner.Algorithm.
func (a *Algorithm) Name() string { return "aopt" }

// OverrideDeltaFraction repositions the slow-trigger slack δ_e at the given
// fraction of its legal range (0, κ/2−2ε−2µτ). Fractions ≥ 1 leave the
// legal range and are permitted only so the E12 ablation can demonstrate
// that Lemma 5.3 (trigger mutual exclusion) then fails; call before any
// edges are discovered.
func (a *Algorithm) OverrideDeltaFraction(f float64) {
	a.deltaFraction = f
}

// Params returns the validated parameters.
func (a *Algorithm) Params() Params { return a.p }

// Init implements runner.Algorithm.
func (a *Algorithm) Init(rt *runner.Runtime) {
	a.rt = rt
	a.n = rt.N()
	a.l = make([]float64, a.n)
	a.m = make([]float64, a.n)
	a.mult = make([]float64, a.n)
	for i := range a.mult {
		a.mult[i] = 1
	}
	a.classIdx = make(map[edgeClass]int32)
	a.growRecs()
	rt.Dyn.OnDeclare(a.growRecs)
	a.shardCtr = make([]modeCounters, rt.TickShards())
	a.evCtr = make([]modeCounters, rt.Engine.EventShards())
	a.decideFn = a.decideShard
	a.integrateFn = a.integrateShard
	a.refreshSMax()
	a.initCerts()
}

// Logical implements runner.Algorithm.
func (a *Algorithm) Logical(u int) float64 { return a.l[u] }

// MaxEstimate implements runner.Algorithm.
func (a *Algorithm) MaxEstimate(u int) float64 { return a.m[u] }

// Mult returns node u's current rate multiplier (1 = slow, 1+µ = fast).
func (a *Algorithm) Mult(u int) float64 { return a.mult[u] }

// SetLogical overrides a node's clocks before the run starts; used by the
// self-stabilization experiments to model arbitrary corrupted initial state.
func (a *Algorithm) SetLogical(u int, v float64) {
	a.l[u] = v
	a.m[u] = v
	a.clearCert(u)
}

// gTilde returns node u's current global skew estimate.
func (a *Algorithm) gTilde(u int, t sim.Time) float64 {
	if a.p.Skew != nil {
		return a.p.Skew.GTilde(u, t)
	}
	return a.p.GTilde
}

// refreshSMax derives the trigger level cap: beyond
// s > (G̃ + 2ε)/κ_min the witness conditions are unsatisfiable because no
// estimate can be further than G̃+ε from L_u.
func (a *Algorithm) refreshSMax() {
	if a.p.MaxTriggerLevel > 0 {
		a.sMax = a.p.MaxTriggerLevel
		return
	}
	g := a.p.GTilde
	if a.p.Skew != nil {
		g = a.p.Skew.GTilde(0, 0)
	}
	if math.IsInf(a.minKappa, 1) || a.minKappa <= 0 {
		a.sMax = 8
		return
	}
	s := int(math.Ceil(g/a.minKappa)) + 3
	if s < 4 {
		s = 4
	}
	if s > 96 {
		s = 96
	}
	a.sMax = s
}

// handshakeDelta returns the Listing 1 waiting period Δ for an edge with
// message delay bound delay and detection delay tau.
func (a *Algorithm) handshakeDelta(delay, tau float64) float64 {
	p := a.p
	return (1+p.Rho)*(1+p.Mu)*(delay+tau)/(1-p.Rho) + tau
}

// deriveClass derives the per-edge constants of edge {u,v} (Section 4.3.1)
// from the link's current parameters and the estimate layer's ε, lowering
// the trigger level cap when the edge is the lightest seen so far. It runs
// at every appearance, so a link re-declared while down is weighed by its
// new parameters (eq. 9 must hold for the ε the estimates now carry).
func (a *Algorithm) deriveClass(u, v int) (edgeClass, bool) {
	lp, ok := a.rt.Dyn.Params(u, v)
	if !ok {
		return edgeClass{}, false
	}
	eps := a.rt.Est.Eps(u, v)
	kappa := analysis.Kappa(eps, lp.Tau, a.p.Mu, a.p.KappaFactor)
	_, deltaHi := analysis.DeltaRange(kappa, eps, lp.Tau, a.p.Mu)
	if kappa < a.minKappa {
		a.minKappa = kappa
		a.refreshSMax()
	}
	return edgeClass{
		eps:   eps,
		tau:   lp.Tau,
		delay: lp.Delay,
		kappa: kappa,
		delta: a.deltaFraction * deltaHi,
	}, true
}

// OnEdgeUp implements runner.Algorithm; it is Listing 1's discovery path.
func (a *Algorithm) OnEdgeUp(self, peer int, t sim.Time) {
	dir, ok := a.rt.Dyn.Dir(self, peer)
	if !ok {
		return
	}
	cls, _ := a.deriveClass(self, peer)
	a.recClass[dir] = a.internClass(cls)
	a.recFlags[dir] |= recUp | recSeen
	a.recSince[dir] = t
	a.recLAtUp[dir] = a.l[self]
	if t == 0 {
		// Paper convention: edges present at time 0 populate all neighbor
		// sets immediately (N^s_u(0) = N_u(0) for all s).
		a.recFlags[dir] |= recPreInserted
		a.recFlags[dir] &^= recHaveTimes
		a.clearCert(self) // the edge joins the fold at once
		return
	}
	if self < peer { // leader of the edge
		a.scheduleLeaderCheck(self, peer, dir, t)
	}
}

// OnEdgeDown implements runner.Algorithm: the node removes the peer from all
// neighbor sets and forgets the insertion times (T_s := ⊥, Listing 1).
func (a *Algorithm) OnEdgeDown(self, peer int, _ sim.Time) {
	dir, ok := a.rt.Dyn.Dir(self, peer)
	if !ok {
		return
	}
	a.recFlags[dir] &^= recUp | recPreInserted | recHaveTimes | recDecaying
	a.rt.Engine.Cancel(a.recCheck[dir]) // stale or zero handles are safe no-ops
	a.recCheck[dir] = 0
	// The edge leaves the fold, which changes the number of queries an
	// oracle certificate skips.
	a.clearCert(self)
}

// scheduleLeaderCheck waits at least Δ and until the edge has been visible
// for a logical duration of (1+ρ)(1+µ)Δ, then agrees insertion times with
// the peer (Listing 1 lines 4–10). The attempt closure captures
// (self, peer, dir), the record's directed index.
func (a *Algorithm) scheduleLeaderCheck(self, peer int, dir int32, discovered sim.Time) {
	cls := &a.classes[a.recClass[dir]]
	delta := a.handshakeDelta(cls.delay, cls.tau)
	needLogical := (1 + a.p.Rho) * (1 + a.p.Mu) * delta
	var attempt func(t sim.Time)
	attempt = func(t sim.Time) {
		a.recCheck[dir] = 0
		if a.recFlags[dir]&recUp == 0 || a.recSince[dir] != discovered {
			a.HandshakeAborts++
			return
		}
		if gap := needLogical - (a.l[self] - a.recLAtUp[dir]); gap > 0 {
			// Logical window not yet covered; retry once it surely is
			// (logical clocks advance at rate ≥ 1−ρ).
			a.recCheck[dir] = a.rt.Engine.After(gap/(1-a.p.Rho)+a.rt.Tick(), attempt)
			return
		}
		g := a.gTilde(self, t)
		lIns := a.l[self] + g + (1+a.p.Rho)*(1+a.p.Mu)*a.classes[a.recClass[dir]].delay
		a.rt.Net.SendControl(self, peer, insertEdgeMsg{LIns: lIns, GTilde: g})
		a.computeInsertionTimes(self, dir, lIns, g)
	}
	a.recCheck[dir] = a.rt.Engine.After(delta, attempt)
}

// OnControl implements runner.Algorithm; handles insertedge messages
// (Listing 1 lines 11–14).
func (a *Algorithm) OnControl(to, from int, payload any, d transport.Delivery) {
	msg, ok := payload.(insertEdgeMsg)
	if !ok {
		return
	}
	dir := d.Dir
	if a.recFlags[dir]&recUp == 0 {
		a.HandshakeAborts++
		return
	}
	cls := &a.classes[a.recClass[dir]]
	discovered := a.recSince[dir]
	minWait := cls.delay + cls.tau
	maxWait := a.handshakeDelta(cls.delay, cls.tau) - cls.tau
	needLogical := (1 + a.p.Rho) * (1 + a.p.Mu) * minWait
	received := d.At
	var attempt func(t sim.Time)
	attempt = func(t sim.Time) {
		a.recCheck[dir] = 0
		if a.recFlags[dir]&recUp == 0 || a.recSince[dir] != discovered {
			a.HandshakeAborts++
			return
		}
		if a.l[to]-a.recLAtUp[dir] >= needLogical {
			a.computeInsertionTimes(to, dir, msg.LIns, msg.GTilde)
			return
		}
		if t-received < maxWait {
			a.recCheck[dir] = a.rt.Engine.After(a.rt.Tick(), attempt)
			return
		}
		a.HandshakeAborts++
	}
	a.recCheck[dir] = a.rt.Engine.After(minWait, attempt)
}

// computeInsertionTimes is Listing 2 (or, for InsertDecaying, the start of
// the §5.5 weight-decay schedule) for node u's record at dir. The edge can
// now join u's fold as L_u advances, so u's certificate is cleared.
func (a *Algorithm) computeInsertionTimes(u int, dir int32, lIns, g float64) {
	a.clearCert(u)
	cls := &a.classes[a.recClass[dir]]
	if a.p.Insertion == InsertDecaying {
		a.recT0[dir] = lIns
		a.recInsDur[dir] = 0
		a.recKappa0[dir] = g + 4*cls.kappa
		a.recFlags[dir] |= recDecaying | recHaveTimes
		a.Insertions++
		return
	}
	var insDur float64
	switch a.p.Insertion {
	case InsertDynamic:
		insDur = analysis.InsertionDurationDynamic(g, a.p.Mu, a.p.Rho, a.p.B, cls.delay, cls.tau)
		a.recFlags[dir] |= recDynamicGrid
	case InsertCustom:
		insDur = a.p.InsertionFactor * g / a.p.Mu
		a.recFlags[dir] &^= recDynamicGrid
	default:
		insDur = analysis.InsertionDurationStatic(g, a.p.Mu, a.p.Rho)
		a.recFlags[dir] &^= recDynamicGrid
	}
	a.recT0[dir] = analysis.InsertionBase(lIns, insDur)
	a.recInsDur[dir] = insDur
	a.recFlags[dir] |= recHaveTimes
	a.Insertions++
}

// kappaAt returns the weight of the record at dir at local logical time l:
// the static κ_e (kappa, the record's class weight, passed in because every
// caller already has the class), or the decaying weight during a
// §5.5-style insertion.
func (a *Algorithm) kappaAt(dir int32, kappa, l float64) float64 {
	if a.recFlags[dir]&recDecaying == 0 {
		return kappa
	}
	if l <= a.recT0[dir] {
		return a.recKappa0[dir]
	}
	k := a.recKappa0[dir] - (l-a.recT0[dir])*a.p.DecayRate*a.p.Mu
	if k <= kappa {
		// Decay finished: the edge behaves like a fully inserted one.
		a.recFlags[dir] &^= recDecaying
		return kappa
	}
	return k
}

// deltaAt returns the slow-trigger slack of an edge of class cls for the
// current weight.
func (a *Algorithm) deltaAt(cls *edgeClass, kappa float64) float64 {
	if kappa == cls.kappa {
		return cls.delta
	}
	_, hi := analysis.DeltaRange(kappa, cls.eps, cls.tau, a.p.Mu)
	return a.deltaFraction * hi
}

// level returns the highest s such that the peer is in N^s_self, per the
// implicit representation of Section 4.3.2, for the record at dir.
//
// This head is small enough to inline into the trigger fold, and answers
// the commonest record there, an edge present at time 0, without a call:
// recPreInserted implies recUp, because only OnEdgeUp sets it and
// OnEdgeDown clears both.
func (a *Algorithm) level(self int, dir int32) int {
	if a.recFlags[dir]&recPreInserted != 0 {
		return analysis.InfLevel
	}
	return a.levelInserted(self, dir)
}

// level1Time returns the logical time from which level reports at least 1
// for the record at dir, which has insertion times and is not pre-inserted:
// levelInserted's cases, each at its level-1 boundary.
func (a *Algorithm) level1Time(dir int32) float64 {
	flags := a.recFlags[dir]
	switch {
	case flags&recDecaying != 0 || a.p.Insertion == InsertDecaying && a.recInsDur[dir] == 0:
		return a.recT0[dir]
	case flags&recDynamicGrid != 0 && a.recInsDur[dir] > 0:
		return analysis.InsertionTimeDynamic(a.recT0[dir], a.recInsDur[dir], 1)
	default:
		return a.recT0[dir]
	}
}

// levelInserted is level for a record that was not pre-inserted.
func (a *Algorithm) levelInserted(self int, dir int32) int {
	flags := a.recFlags[dir]
	switch {
	case flags&recUp == 0:
		return 0
	case flags&recHaveTimes == 0:
		return 0
	case flags&recDecaying != 0 || a.p.Insertion == InsertDecaying && a.recInsDur[dir] == 0:
		// §5.5 strategy: in all neighbor sets as soon as the agreed logical
		// start time is reached; safety comes from the inflated weight.
		if a.l[self] >= a.recT0[dir] {
			return analysis.InfLevel
		}
		return 0
	case flags&recDynamicGrid != 0:
		return analysis.LevelAtDynamic(a.l[self], a.recT0[dir], a.recInsDur[dir])
	default:
		return analysis.LevelAt(a.l[self], a.recT0[dir], a.recInsDur[dir])
	}
}

// EdgeLevel exposes the level of edge {u,v} as seen by u (for metrics and
// legality snapshots). Zero when the edge is down or not yet inserted.
func (a *Algorithm) EdgeLevel(u, v int) int {
	dir, ok := a.rt.Dyn.Dir(u, v)
	if !ok {
		return 0
	}
	return a.level(u, dir)
}

// EdgeKappa returns the current weight κ of edge {u,v} as seen by u (0 if
// unknown). During a decaying-weight insertion this is the inflated,
// shrinking weight; otherwise the static κ_e.
func (a *Algorithm) EdgeKappa(u, v int) float64 {
	dir, ok := a.rt.Dyn.Dir(u, v)
	if !ok || a.recFlags[dir]&recSeen == 0 {
		return 0
	}
	return a.kappaAt(dir, a.classes[a.recClass[dir]].kappa, a.l[u])
}

// OnBeacon implements runner.Algorithm: max-estimate flooding
// (FloodCandidate), and on messaging estimates the lowering of a live
// certificate for the sample the beacon just left. Oracle estimates do not
// read beacons, so their certificates stand.
func (a *Algorithm) OnBeacon(to, from int, b transport.Beacon, d transport.Delivery) {
	if cand := FloodCandidate(b.M, d.MinTransit, a.rt.Tick(), a.p.Rho); cand > a.m[to] {
		a.m[to] = cand
	}
	if a.msg != nil && a.certified(to) {
		a.lowerCert(to, d.Dir)
	}
}

// Step implements runner.Algorithm: first decide every node's mode from the
// pre-tick state (Listing 3), then integrate clocks and max estimates.
//
// The two phases are exactly the split the sharded tick needs, because the
// paper's Listing 3 already decides every node's mode from pre-tick state:
// the decide phase reads only clocks no shard writes (l, m, and neighbor
// estimates of pre-tick values) and writes only the owning node's mult entry
// and per-shard counters; after the barrier, the integrate phase touches
// disjoint l/m ranges. Both fan out through the runtime's ParallelTick, so
// results are byte-identical for every TickParallelism — pinned by the
// differential tests in parallel_tick_test.go.
//
// Oracle queries are not node-local, so the runner never crosses a tick on
// them: every oracle fold runs here, after Step has read the tick's rate
// envelope.
func (a *Algorithm) Step(t sim.Time, dH []float64) {
	a.dHTick = dH
	if a.orc != nil {
		a.env = a.readEnvelope(t)
	}
	a.rt.ParallelTick(a.n, a.decideFn)
	a.rt.ParallelTick(a.n, a.integrateFn)
	a.mergeCounters(a.shardCtr)
}

// decideShard runs the mode-decision phase for nodes [lo, hi).
func (a *Algorithm) decideShard(shard, lo, hi int) {
	c, dH := &a.shardCtr[shard], a.dHTick
	for u := lo; u < hi; u++ {
		a.mult[u] = a.decideMode(u, dH[u], c)
	}
}

// integrateShard runs the clock-integration phase for nodes [lo, hi).
func (a *Algorithm) integrateShard(_, lo, hi int) {
	mRate, dH := a.mRate, a.dHTick
	for u := lo; u < hi; u++ {
		a.l[u], a.m[u] = Integrate(a.l[u], a.m[u], a.mult[u], dH[u], mRate)
	}
}

// mergeCounters folds per-shard tallies (the tick shards' after Step, the
// event shards' after a crossed tick) into the public counters, in shard
// order, and clears the blocks for the next tick.
func (a *Algorithm) mergeCounters(blocks []modeCounters) {
	for i := range blocks {
		c := &blocks[i]
		a.FastTicks += c.fast
		a.SlowTicks += c.slow
		a.TriggerConflicts += c.conflicts
		a.MissingEstimates += c.missing
		a.certTicks += c.cert
		*c = modeCounters{}
	}
}

// CanStepNodes implements runner.NodeStepper: every node's tick can be
// applied on its own.
func (a *Algorithm) CanStepNodes() bool { return true }

// StepNode implements runner.NodeStepper: decide-then-integrate for one node
// whose tick is being applied lazily inside a tick-crossing event window.
// Fusing the phases per node is byte-identical to the phased Step because
// the decide phase reads only the deciding node's own pre-tick state (l[u],
// m[u], mult[u], u's estimates) — never another node's clocks — so no node's
// decision can observe a neighbor's integration. shard is u's fixed event
// shard: inside a window and in the runner's completion phase alike, the
// call runs on the worker owning that shard, so the evCtr block is
// contention-free.
func (a *Algorithm) StepNode(u, shard int, dh float64) {
	mult := a.decideMode(u, dh, &a.evCtr[shard])
	a.mult[u] = mult
	a.l[u], a.m[u] = Integrate(a.l[u], a.m[u], mult, dh, a.mRate)
}

// FinishTick implements runner.NodeStepper: fold the per-event-shard tallies
// of a lazily applied tick into the public counters, in shard order.
func (a *Algorithm) FinishTick() { a.mergeCounters(a.evCtr) }

// decideMode evaluates the triggers of Definitions 4.5–4.7 for node u, whose
// hardware clock advanced by dh this tick, and returns the rate multiplier
// per Listing 3, tallying into the caller's shard counters. Under a
// certificate both triggers are known false and every estimate served, so
// the fold is skipped, the counters move exactly as it would move them, and
// on the oracle u's error draws advance past the queries it would make.
func (a *Algorithm) decideMode(u int, dh float64, c *modeCounters) float64 {
	var fast, slow bool
	if a.certified(u) {
		c.cert++
		if u < len(a.queries) {
			a.orc.SkipQueries(u, a.queries[u])
		}
	} else {
		fast, slow = a.evalTriggers(u, dh, c)
		if fast && slow {
			c.conflicts++
		}
	}
	mult, isFast := NextMode(fast, slow, a.l[u], a.m[u], a.mult[u], a.p.Mu, a.p.Iota)
	c.count(isFast)
	return mult
}

// evalTriggers decides the fast (Definition 4.5) and slow (Definition 4.6)
// triggers for node u in a single O(deg) pass over its live edges.
//
// Every trigger inequality compares a fixed clock difference against a bound
// that grows linearly in the level s, and the level-s neighbor filter
// (lvl ≥ s) is itself downward closed — so each edge witnesses (or blocks)
// exactly the levels s = 1..s_w for some per-edge threshold s_w derived from
// its (est, κ, δ, ε, τ) tuple. The per-level witness/blocked aggregates of a
// literal scan over every s therefore collapse to prefix maxima: one integer
// per condition. "∃s ≤ top: witness(s) ∧ ¬blocked(s)"
// becomes W > B, because witness(s) ⇔ s ≤ W and blocked(s) ⇔ s ≤ B, and
// W never exceeds top (each threshold is clamped by min(level, sMax)).
//
// The thresholds are seeded by inverting the inequalities and pinned to the
// exact floating-point comparisons of the literal scan by the fix-up steps
// in the *Level helpers, so the decisions are bit-identical — enforced
// against the reference scan in trigger_test.go by its differential and
// fuzz tests.
//
// On messaging and skippable oracle estimates the same pass sets u's
// certificate (cert.go): the fold reads its estimates through the shard's
// certQuery or oracleQuery, which gather the extreme estimates and the
// earliest sample expiry or the query count, and it notes any edge that
// refuses a certificate and the earliest level-1 time of an edge still
// inserting. dh is u's hardware increment this tick.
func (a *Algorithm) evalTriggers(u int, dh float64, c *modeCounters) (fast, slow bool) {
	lu := a.l[u]
	est := a.rt.Est
	var (
		q  *certQuery
		oq *oracleQuery
	)
	if msg := a.certLayer(est); msg != nil {
		q = &c.q
		*q = certQuery{Messaging: msg, lo: math.Inf(1), hi: math.Inf(-1), until: math.Inf(1)}
		est = q
	} else if orc := a.oracleLayer(est); orc != nil {
		oq = &c.oq
		*oq = oracleQuery{Oracle: orc, lo: math.Inf(1), hi: math.Inf(-1)}
		est = oq
	}
	var fw, fb, sw, sb int // prefix maxima: fast/slow × witness/blocked
	refused := false       // an edge refuses u a certificate
	join := math.Inf(1)    // the earliest level-1 time of an inserting edge
	// One contiguous scan of u's sorted topology row, whose entries index
	// the record slabs and the estimate layer directly — no map probe,
	// pointer chase or per-edge lookup.
	peers, dirs := a.rt.Dyn.Row(u)
	for i, dir := range dirs {
		if a.recFlags[dir]&recUp == 0 {
			continue
		}
		lvl := a.level(u, dir)
		if lvl < 1 {
			// An edge still inserting joins the fold once L_u reaches its
			// level-1 time, where a certificate must end.
			if a.recFlags[dir]&recHaveTimes != 0 {
				join = min(join, a.level1Time(dir))
			}
			continue
		}
		// recUp mirrors topo's visibility bit (both flip in the same
		// transition event), so v ∈ N_u holds as EstimateAt requires.
		e, ok := est.EstimateAt(u, int(peers[i]), dir)
		if !ok {
			c.missing++
			refused = true
			continue
		}
		cls := &a.classes[a.recClass[dir]]
		kappa := a.kappaAt(dir, cls.kappa, lu)
		// A decaying weight moves the edge's thresholds as L_u advances.
		if kappa != cls.kappa {
			refused = true
		}
		delta := a.deltaAt(cls, kappa)
		top := lvl
		if top > a.sMax {
			top = a.sMax
		}
		ahead, behind := e-lu, lu-e
		// Each helper runs only when its level-1 inequality holds: the
		// inequalities are monotone in s, so a false level-1 test means the
		// helper would return 0, which cannot raise a prefix maximum. In the
		// steady state every edge sits inside the level-1 band and all four
		// guards fail. The guards stay separate rather than one combined
		// skip: an edge outside the band is ahead or behind, not both, so
		// it still skips the two helpers of the other side.
		if FastWitness1(ahead, kappa, cls.eps) {
			if w := fastWitnessLevel(ahead, kappa, cls.eps, top); w > fw {
				fw = w
			}
		}
		if FastBlocked1(behind, kappa, cls.eps, cls.tau, a.p.Mu) {
			if b := a.fastBlockedLevel(behind, kappa, cls.eps, cls.tau, top); b > fb {
				fb = b
			}
		}
		if SlowWitness1(behind, kappa, delta, cls.eps) {
			if w := slowWitnessLevel(behind, kappa, delta, cls.eps, top); w > sw {
				sw = w
			}
		}
		if SlowBlocked1(ahead, kappa, delta, cls.eps, cls.tau, a.p.Mu, a.p.Rho) {
			if b := a.slowBlockedLevel(ahead, kappa, delta, cls.eps, cls.tau, top); b > sb {
				sb = b
			}
		}
	}
	switch {
	case q != nil:
		a.cert[u] = math.Inf(-1)
		if !refused {
			h := a.rt.HW[u]
			a.cert[u] = a.quietUntil(h, lu, q.hi-lu, lu-q.lo+(1+a.p.Mu)*dh, min(q.until, a.joinCap(h, dh, lu, join)))
		}
	case oq != nil:
		a.cert[u] = math.Inf(-1)
		if !refused {
			a.cert[u] = a.oracleQuietUntil(a.rt.HW[u], dh, lu, oq.hi-lu, lu-oq.lo, join)
			a.queries[u] = oq.n
		}
	}
	return fw > fb, sw > sb
}

// seedLevel clamps a real-valued threshold guess into [0, top]. The guess
// only has to be near the true threshold — the fix-up loops in the callers
// establish exactness against the reference comparisons.
func seedLevel(q float64, top int) int {
	if !(q > 0) { // also catches NaN
		return 0
	}
	if q >= float64(top) {
		return top
	}
	return int(q)
}

// fastWitnessLevel returns the largest s ∈ [0, top] with est−L_u ≥ s·κ − ε
// (the Definition 4.5 witness condition; ahead = est−L_u).
func fastWitnessLevel(ahead, kappa, eps float64, top int) int {
	s := seedLevel((ahead+eps)/kappa, top)
	for s < top && ahead >= float64(s+1)*kappa-eps {
		s++
	}
	for s > 0 && ahead < float64(s)*kappa-eps {
		s--
	}
	return s
}

// fastBlockedLevel returns the largest s ∈ [0, top] with
// L_u−est > s·κ + 2µτ + ε (the Definition 4.5 blocking condition;
// behind = L_u−est).
func (a *Algorithm) fastBlockedLevel(behind, kappa, eps, tau float64, top int) int {
	s := seedLevel((behind-2*a.p.Mu*tau-eps)/kappa, top)
	for s < top && behind > float64(s+1)*kappa+2*a.p.Mu*tau+eps {
		s++
	}
	for s > 0 && !(behind > float64(s)*kappa+2*a.p.Mu*tau+eps) {
		s--
	}
	return s
}

// slowWitnessLevel returns the largest s ∈ [0, top] with
// L_u−est ≥ (s+½)κ − δ − ε (the Definition 4.6 witness condition).
func slowWitnessLevel(behind, kappa, delta, eps float64, top int) int {
	s := seedLevel((behind+delta+eps)/kappa-0.5, top)
	for s < top && behind >= (float64(s+1)+0.5)*kappa-delta-eps {
		s++
	}
	for s > 0 && behind < (float64(s)+0.5)*kappa-delta-eps {
		s--
	}
	return s
}

// slowBlockedLevel returns the largest s ∈ [0, top] with
// est−L_u > (s+½)κ + δ + ε + µ(1+ρ)τ (the Definition 4.6 blocking
// condition).
func (a *Algorithm) slowBlockedLevel(ahead, kappa, delta, eps, tau float64, top int) int {
	s := seedLevel((ahead-delta-eps-a.p.Mu*(1+a.p.Rho)*tau)/kappa-0.5, top)
	for s < top && ahead > (float64(s+1)+0.5)*kappa+delta+eps+a.p.Mu*(1+a.p.Rho)*tau {
		s++
	}
	for s > 0 && !(ahead > (float64(s)+0.5)*kappa+delta+eps+a.p.Mu*(1+a.p.Rho)*tau) {
		s--
	}
	return s
}
