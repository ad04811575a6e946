package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/analysis"
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

// edgeRec is one node's state for a (potential) estimate edge, as described
// in Section 4.3.2: the implicit representation of all neighbor sets N^s via
// the pair (T₀, I), plus handshake bookkeeping.
type edgeRec struct {
	peer int
	// Derived per-edge constants (Section 4.3.1).
	eps   float64 // estimate uncertainty ε_e of the estimate layer
	tau   float64 // detection delay τ_e
	delay float64 // message delay bound T_e
	kappa float64 // weight κ_e (eq. 9)
	delta float64 // slow-trigger slack δ_e

	up      bool
	upSince sim.Time
	lAtUp   float64 // L_self when the edge was discovered

	// Insertion state: when haveTimes, the edge is being (or has been)
	// inserted with base T₀ and duration I. preInserted marks time-0 edges,
	// which the paper places in all neighbor sets immediately.
	preInserted bool
	haveTimes   bool
	t0          float64
	insDur      float64
	// Decaying-weight insertion (§5.5 strategy): once decaying, the edge is
	// in all neighbor sets with weight κ(l) = max(κ_e, κ₀ − (l−t0)·rate),
	// evaluated against the local logical clock l.
	decaying bool
	kappa0   float64
	// dynamicGrid marks the §7 insertion-time schedule (Lemma 7.1 offsets)
	// instead of the Listing 2 offsets.
	dynamicGrid bool

	check sim.Handle // pending handshake check (zero when none)
}

// Algorithm is the AOPT implementation; it satisfies runner.Algorithm.
type Algorithm struct {
	p  Params
	rt *runner.Runtime
	n  int

	l    []float64 // logical clocks L_u
	m    []float64 // max estimates M_u
	mult []float64 // current rate multiplier (1 or 1+µ)

	// Reference (map-backed) layout, active when refLayout is set:
	// edges[u] maps peer → record; peers[u] lists the known peer ids in
	// ascending order so trigger evaluation iterates deterministically
	// (maps would randomize RNG draw order through the estimate layer).
	edges []map[int]*edgeRec
	peers [][]int

	// Structure-of-arrays layout (the default; see soa.go): parallel rec
	// slabs indexed by the topology's directed index of (node, peer), and
	// the per-edge constants interned in classes.
	refLayout bool
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

	// deltaFraction positions δ_e inside its legal range
	// (0, κ/2−2ε−2µτ); the default 0.5 is the midpoint. Values ≥ 1 violate
	// the range and break Lemma 5.3 — settable only through
	// OverrideDeltaFraction for the E12 ablation.
	deltaFraction float64

	// refTriggers switches trigger evaluation to the reference double loop
	// (the literal Definitions 4.5–4.7 scan over every level s). It exists
	// only so the differential and fuzz tests can pin the single-pass
	// engine to byte-identical decisions; production always uses the fold.
	refTriggers bool

	// evals is scratch for the reference trigger evaluation.
	evals []edgeEval

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
	// which window or sweep touches a node first.
	evCtr []modeCounters

	// Counters (diagnostics; tests assert on several).
	FastTicks        uint64 // node-ticks spent in fast mode
	SlowTicks        uint64 // node-ticks spent in slow mode
	TriggerConflicts uint64 // ticks where both triggers held (must stay 0, Lemma 5.3)
	MissingEstimates uint64 // trigger evaluations lacking an estimate
	Insertions       uint64 // completed computeInsertionTimes calls
	HandshakeAborts  uint64 // handshake checks that found the edge gone
}

// modeCounters is one shard's private tally for a tick phase; Step folds the
// blocks into the public counters after the barrier, in shard order, so the
// totals are byte-identical to the serial tick's. The padding keeps adjacent
// shards' hot words on separate cache lines.
type modeCounters struct {
	fast, slow, conflicts, missing uint64
	_                              [4]uint64
}

var _ runner.Algorithm = (*Algorithm)(nil)

// New constructs the algorithm; parameters are validated and defaulted.
func New(p Params) (*Algorithm, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Algorithm{p: p, minKappa: math.Inf(1), deltaFraction: 0.5}, nil
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

// SetReferenceTriggers switches between the single-pass trigger engine
// (false, the default) and the reference per-level double loop (true). The
// two are pinned byte-identical by the differential tests; the switch exists
// so those tests (and ablation debugging) can run the literal definition.
func (a *Algorithm) SetReferenceTriggers(ref bool) { a.refTriggers = ref }

// SetReferenceLayout switches between the structure-of-arrays edge-record
// layout (false, the default; soa.go) and the retained map-of-pointers
// layout (true). The two are pinned byte-identical by the full-run
// differential tests; call before Init (i.e. before the runtime Attach).
func (a *Algorithm) SetReferenceLayout(ref bool) {
	if a.rt != nil {
		panic("core: SetReferenceLayout after Init")
	}
	a.refLayout = ref
}

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
	if a.refLayout {
		a.edges = make([]map[int]*edgeRec, a.n)
		for i := range a.edges {
			a.edges[i] = make(map[int]*edgeRec)
		}
		a.peers = make([][]int, a.n)
	} else {
		if rt.Dyn.ReferenceLayout() {
			panic("core: the slab layout requires the topology's slab layout")
		}
		a.classIdx = make(map[edgeClass]int32)
		a.growRecs()
		rt.Dyn.OnDeclare(a.onDeclare)
	}
	a.shardCtr = make([]modeCounters, rt.TickShards())
	a.evCtr = make([]modeCounters, rt.Engine.EventShards())
	a.decideFn = a.decideShard
	a.integrateFn = a.integrateShard
	a.refreshSMax()
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

// handshakeDelta returns the Listing 1 waiting period Δ for an edge.
func (a *Algorithm) handshakeDelta(rec *edgeRec) float64 {
	return a.handshakeDeltaVals(rec.delay, rec.tau)
}

func (a *Algorithm) handshakeDeltaVals(delay, tau float64) float64 {
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
	if !a.refLayout {
		a.onEdgeUpSlot(self, peer, t)
		return
	}
	cls, ok := a.deriveClass(self, peer)
	if !ok {
		return
	}
	rec, ok := a.edges[self][peer]
	if !ok {
		rec = &edgeRec{peer: peer}
		a.edges[self][peer] = rec
		a.peers[self] = append(a.peers[self], peer)
		sort.Ints(a.peers[self])
	}
	rec.eps, rec.tau, rec.delay, rec.kappa, rec.delta = cls.eps, cls.tau, cls.delay, cls.kappa, cls.delta
	rec.up = true
	rec.upSince = t
	rec.lAtUp = a.l[self]
	if t == 0 {
		// Paper convention: edges present at time 0 populate all neighbor
		// sets immediately (N^s_u(0) = N_u(0) for all s).
		rec.preInserted = true
		rec.haveTimes = false
		return
	}
	if self < peer { // leader of the edge
		a.scheduleLeaderCheck(self, rec, t)
	}
}

// OnEdgeDown implements runner.Algorithm: the node removes the peer from all
// neighbor sets and forgets the insertion times (T_s := ⊥, Listing 1).
func (a *Algorithm) OnEdgeDown(self, peer int, t sim.Time) {
	if !a.refLayout {
		a.onEdgeDownSlot(self, peer)
		return
	}
	rec, ok := a.edges[self][peer]
	if !ok {
		return
	}
	rec.up = false
	rec.preInserted = false
	rec.haveTimes = false
	rec.decaying = false
	a.rt.Engine.Cancel(rec.check) // stale or zero handles are safe no-ops
	rec.check = 0
}

// scheduleLeaderCheck waits at least Δ and until the edge has been visible
// for a logical duration of (1+ρ)(1+µ)Δ, then agrees insertion times with
// the peer (Listing 1 lines 4–10).
func (a *Algorithm) scheduleLeaderCheck(self int, rec *edgeRec, discovered sim.Time) {
	delta := a.handshakeDelta(rec)
	needLogical := (1 + a.p.Rho) * (1 + a.p.Mu) * delta
	var attempt func(t sim.Time)
	attempt = func(t sim.Time) {
		rec.check = 0
		if !rec.up || rec.upSince != discovered {
			a.HandshakeAborts++
			return
		}
		if gap := needLogical - (a.l[self] - rec.lAtUp); gap > 0 {
			// Logical window not yet covered; retry once it surely is
			// (logical clocks advance at rate ≥ 1−ρ).
			rec.check = a.rt.Engine.After(gap/(1-a.p.Rho)+a.rt.Tick(), attempt)
			return
		}
		g := a.gTilde(self, t)
		lIns := a.l[self] + g + (1+a.p.Rho)*(1+a.p.Mu)*rec.delay
		a.rt.Net.SendControl(self, rec.peer, insertEdgeMsg{LIns: lIns, GTilde: g})
		a.computeInsertionTimes(self, rec, lIns, g)
	}
	rec.check = a.rt.Engine.After(delta, attempt)
}

// OnControl implements runner.Algorithm; handles insertedge messages
// (Listing 1 lines 11–14).
func (a *Algorithm) OnControl(to, from int, payload any, d transport.Delivery) {
	msg, ok := payload.(insertEdgeMsg)
	if !ok {
		return
	}
	if !a.refLayout {
		a.onControlSlot(to, from, msg, d)
		return
	}
	rec, okRec := a.edges[to][from]
	if !okRec || !rec.up {
		a.HandshakeAborts++
		return
	}
	discovered := rec.upSince
	minWait := rec.delay + rec.tau
	maxWait := a.handshakeDelta(rec) - rec.tau
	needLogical := (1 + a.p.Rho) * (1 + a.p.Mu) * minWait
	received := d.At
	var attempt func(t sim.Time)
	attempt = func(t sim.Time) {
		rec.check = 0
		if !rec.up || rec.upSince != discovered {
			a.HandshakeAborts++
			return
		}
		if a.l[to]-rec.lAtUp >= needLogical {
			a.computeInsertionTimes(to, rec, msg.LIns, msg.GTilde)
			return
		}
		if t-received < maxWait {
			rec.check = a.rt.Engine.After(a.rt.Tick(), attempt)
			return
		}
		a.HandshakeAborts++
	}
	rec.check = a.rt.Engine.After(minWait, attempt)
}

// computeInsertionTimes is Listing 2 (or, for InsertDecaying, the start of
// the §5.5 weight-decay schedule).
func (a *Algorithm) computeInsertionTimes(self int, rec *edgeRec, lIns, g float64) {
	if a.p.Insertion == InsertDecaying {
		rec.t0 = lIns
		rec.insDur = 0
		rec.kappa0 = g + 4*rec.kappa
		rec.decaying = true
		rec.haveTimes = true
		a.Insertions++
		return
	}
	var insDur float64
	switch a.p.Insertion {
	case InsertDynamic:
		insDur = analysis.InsertionDurationDynamic(g, a.p.Mu, a.p.Rho, a.p.B, rec.delay, rec.tau)
		rec.dynamicGrid = true
	case InsertCustom:
		insDur = a.p.InsertionFactor * g / a.p.Mu
		rec.dynamicGrid = false
	default:
		insDur = analysis.InsertionDurationStatic(g, a.p.Mu, a.p.Rho)
		rec.dynamicGrid = false
	}
	rec.t0 = analysis.InsertionBase(lIns, insDur)
	rec.insDur = insDur
	rec.haveTimes = true
	a.Insertions++
}

// kappaAt returns the edge weight at local logical time l: the static κ_e,
// or the decaying weight during a §5.5-style insertion.
func (a *Algorithm) kappaAt(rec *edgeRec, l float64) float64 {
	if !rec.decaying || l <= rec.t0 {
		if rec.decaying {
			return rec.kappa0
		}
		return rec.kappa
	}
	k := rec.kappa0 - (l-rec.t0)*a.p.DecayRate*a.p.Mu
	if k <= rec.kappa {
		// Decay finished: the edge behaves like a fully inserted one.
		rec.decaying = false
		return rec.kappa
	}
	return k
}

// deltaAt returns the slow-trigger slack for the current weight.
func (a *Algorithm) deltaAt(rec *edgeRec, kappa float64) float64 {
	if kappa == rec.kappa {
		return rec.delta
	}
	_, hi := analysis.DeltaRange(kappa, rec.eps, rec.tau, a.p.Mu)
	return a.deltaFraction * hi
}

// level returns the highest s such that the peer is in N^s_self, per the
// implicit representation of Section 4.3.2.
func (a *Algorithm) level(self int, rec *edgeRec) int {
	switch {
	case !rec.up:
		return 0
	case rec.preInserted:
		return analysis.InfLevel
	case !rec.haveTimes:
		return 0
	case rec.decaying || a.p.Insertion == InsertDecaying && rec.insDur == 0:
		// §5.5 strategy: in all neighbor sets as soon as the agreed logical
		// start time is reached; safety comes from the inflated weight.
		if a.l[self] >= rec.t0 {
			return analysis.InfLevel
		}
		return 0
	case rec.dynamicGrid:
		return analysis.LevelAtDynamic(a.l[self], rec.t0, rec.insDur)
	default:
		return analysis.LevelAt(a.l[self], rec.t0, rec.insDur)
	}
}

// EdgeLevel exposes the level of edge {u,v} as seen by u (for metrics and
// legality snapshots). Zero when the edge is down or not yet inserted.
func (a *Algorithm) EdgeLevel(u, v int) int {
	if !a.refLayout {
		dir, ok := a.rt.Dyn.Dir(u, v)
		if !ok {
			return 0
		}
		return a.levelSlot(u, dir)
	}
	rec, ok := a.edges[u][v]
	if !ok {
		return 0
	}
	return a.level(u, rec)
}

// EdgeKappa returns the current weight κ of edge {u,v} as seen by u (0 if
// unknown). During a decaying-weight insertion this is the inflated,
// shrinking weight; otherwise the static κ_e.
func (a *Algorithm) EdgeKappa(u, v int) float64 {
	if !a.refLayout {
		dir, ok := a.rt.Dyn.Dir(u, v)
		if !ok || a.recFlags[dir]&recSeen == 0 {
			return 0
		}
		return a.kappaAtSlot(dir, a.classes[a.recClass[dir]].kappa, a.l[u])
	}
	rec, ok := a.edges[u][v]
	if !ok {
		return 0
	}
	return a.kappaAt(rec, a.l[u])
}

// OnBeacon implements runner.Algorithm: max-estimate flooding. The receiver
// may credit the certified minimum transit at the minimum logical rate and
// stay below the network maximum (Condition 4.3). One integration tick is
// subtracted from the credit because clocks grow in discrete steps, so the
// continuous-time argument only covers fully elapsed ticks.
func (a *Algorithm) OnBeacon(to, from int, b transport.Beacon, d transport.Delivery) {
	credit := d.MinTransit - a.rt.Tick()
	if credit < 0 {
		credit = 0
	}
	cand := b.M + (1-a.p.Rho)*credit
	if cand > a.m[to] {
		a.m[to] = cand
	}
}

// edgeEval caches per-edge values for one reference trigger evaluation. It
// holds plain values (not a record pointer) so the reference double loop
// runs unchanged on either edge-record layout.
type edgeEval struct {
	level int
	est   float64
	kappa float64
	delta float64
	eps   float64
	tau   float64
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
// differential tests in parallel_tick_test.go. The reference trigger path
// stays serial: it shares one evals scratch buffer across nodes.
func (a *Algorithm) Step(_ sim.Time, dH []float64) {
	a.dHTick = dH
	if a.refTriggers {
		a.decideShard(0, 0, a.n)
		a.integrateShard(0, 0, a.n)
	} else {
		a.rt.ParallelTick(a.n, a.decideFn)
		a.rt.ParallelTick(a.n, a.integrateFn)
	}
	a.mergeCounters()
}

// decideShard runs the mode-decision phase for nodes [lo, hi).
func (a *Algorithm) decideShard(shard, lo, hi int) {
	c := &a.shardCtr[shard]
	for u := lo; u < hi; u++ {
		a.mult[u] = a.decideMode(u, c)
	}
}

// integrateShard runs the clock-integration phase for nodes [lo, hi).
func (a *Algorithm) integrateShard(_, lo, hi int) {
	oneMinus := (1 - a.p.Rho) / (1 + a.p.Rho)
	dH := a.dHTick
	for u := lo; u < hi; u++ {
		a.l[u] += a.mult[u] * dH[u]
		if a.m[u] <= a.l[u] {
			// M_u = L_u: the estimate moves with the logical clock.
			a.m[u] = a.l[u]
		} else {
			// M_u > L_u: advance at (1−ρ)/(1+ρ) times the hardware rate.
			a.m[u] += oneMinus * dH[u]
			if a.m[u] < a.l[u] {
				a.m[u] = a.l[u]
			}
		}
	}
}

// mergeCounters folds the per-shard tallies into the public counters, in
// shard order, and clears the blocks for the next tick.
func (a *Algorithm) mergeCounters() {
	for i := range a.shardCtr {
		c := &a.shardCtr[i]
		a.FastTicks += c.fast
		a.SlowTicks += c.slow
		a.TriggerConflicts += c.conflicts
		a.MissingEstimates += c.missing
		*c = modeCounters{}
	}
}

// CanStepNodes implements runner.NodeStepper: per-node tick application is
// available on the production trigger engine. The reference double loop
// shares one evals scratch buffer across nodes, so it cannot step nodes
// concurrently and keeps tick crossing disabled.
func (a *Algorithm) CanStepNodes() bool { return !a.refTriggers }

// StepNode implements runner.NodeStepper: decide-then-integrate for one node
// whose tick is being applied lazily inside a tick-crossing event window.
// Fusing the phases per node is byte-identical to the phased Step because
// the decide phase reads only the deciding node's own pre-tick state (l[u],
// m[u], mult[u], u's estimates) — never another node's clocks — so no node's
// decision can observe a neighbor's integration. shard is u's fixed event
// shard: during a window the call runs on the worker owning that shard, so
// the evCtr block is contention-free.
func (a *Algorithm) StepNode(u, shard int, dh float64) {
	mult := a.decideMode(u, &a.evCtr[shard])
	a.mult[u] = mult
	a.l[u] += mult * dh
	if a.m[u] <= a.l[u] {
		// M_u = L_u: the estimate moves with the logical clock.
		a.m[u] = a.l[u]
	} else {
		// M_u > L_u: advance at (1−ρ)/(1+ρ) times the hardware rate.
		a.m[u] += (1 - a.p.Rho) / (1 + a.p.Rho) * dh
		if a.m[u] < a.l[u] {
			a.m[u] = a.l[u]
		}
	}
}

// FinishTick implements runner.NodeStepper: fold the per-event-shard tallies
// of a lazily applied tick into the public counters, in shard order.
func (a *Algorithm) FinishTick() {
	for i := range a.evCtr {
		c := &a.evCtr[i]
		a.FastTicks += c.fast
		a.SlowTicks += c.slow
		a.TriggerConflicts += c.conflicts
		a.MissingEstimates += c.missing
		*c = modeCounters{}
	}
}

// decideMode evaluates the triggers of Definitions 4.5–4.7 for node u and
// returns the rate multiplier per Listing 3, tallying into the caller's
// shard counters.
func (a *Algorithm) decideMode(u int, c *modeCounters) float64 {
	fast, slow := a.evalTriggers(u, c)
	if fast && slow {
		c.conflicts++
	}
	switch {
	case slow:
		c.slow++
		return 1
	case fast:
		c.fast++
		return 1 + a.p.Mu
	case a.l[u] >= a.m[u]-1e-12:
		// Slow max-estimate trigger: L_u = M_u.
		c.slow++
		return 1
	case a.l[u] <= a.m[u]-a.p.Iota:
		// Fast max-estimate trigger.
		c.fast++
		return 1 + a.p.Mu
	default:
		// Free region: keep the current mode.
		if a.mult[u] > 1 {
			c.fast++
		} else {
			c.slow++
		}
		return a.mult[u]
	}
}

// evalTriggers decides the fast (Definition 4.5) and slow (Definition 4.6)
// triggers for node u in a single O(deg) pass over its live edges.
//
// Every trigger inequality compares a fixed clock difference against a bound
// that grows linearly in the level s, and the level-s neighbor filter
// (lvl ≥ s) is itself downward closed — so each edge witnesses (or blocks)
// exactly the levels s = 1..s_w for some per-edge threshold s_w derived from
// its (est, κ, δ, ε, τ) tuple. The per-level witness/blocked aggregates the
// reference double loop rebuilds for every s therefore collapse to prefix
// maxima: one integer per condition. "∃s ≤ top: witness(s) ∧ ¬blocked(s)"
// becomes W > B, because witness(s) ⇔ s ≤ W and blocked(s) ⇔ s ≤ B, and
// W never exceeds top (each threshold is clamped by min(level, sMax)).
//
// The thresholds are seeded by inverting the inequalities and pinned to the
// exact floating-point comparisons of the reference loop by the fix-up steps
// in the *Level helpers, so the decisions are bit-identical — enforced by
// the differential and fuzz tests in trigger_test.go.
func (a *Algorithm) evalTriggers(u int, c *modeCounters) (fast, slow bool) {
	if a.refTriggers {
		return a.evalTriggersRef(u, c)
	}
	if !a.refLayout {
		return a.evalTriggersSlot(u, c)
	}
	lu := a.l[u]
	var fw, fb, sw, sb int // prefix maxima: fast/slow × witness/blocked
	for _, peer := range a.peers[u] {
		rec := a.edges[u][peer]
		if !rec.up {
			continue
		}
		lvl := a.level(u, rec)
		if lvl < 1 {
			continue
		}
		est, ok := a.rt.Est.Estimate(u, rec.peer)
		if !ok {
			c.missing++
			continue
		}
		kappa := a.kappaAt(rec, lu)
		delta := a.deltaAt(rec, kappa)
		top := lvl
		if top > a.sMax {
			top = a.sMax
		}
		ahead, behind := est-lu, lu-est
		if w := fastWitnessLevel(ahead, kappa, rec.eps, top); w > fw {
			fw = w
		}
		if b := a.fastBlockedLevel(behind, kappa, rec.eps, rec.tau, top); b > fb {
			fb = b
		}
		if w := slowWitnessLevel(behind, kappa, delta, rec.eps, top); w > sw {
			sw = w
		}
		if b := a.slowBlockedLevel(ahead, kappa, delta, rec.eps, rec.tau, top); b > sb {
			sb = b
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

// evalTriggersRef is the retained reference: gather per-edge values, then
// scan every level s with the literal double loops. Kept as the oracle the
// single-pass engine is differentially tested against; the gather step
// branches on the edge-record layout, the double loops do not. It shares
// the evals scratch across nodes, which is why Step keeps the reference
// path serial.
func (a *Algorithm) evalTriggersRef(u int, c *modeCounters) (fast, slow bool) {
	a.evals = a.evals[:0]
	maxLevel := 0
	if a.refLayout {
		for _, peer := range a.peers[u] {
			rec := a.edges[u][peer]
			if !rec.up {
				continue
			}
			lvl := a.level(u, rec)
			if lvl < 1 {
				continue
			}
			est, ok := a.rt.Est.Estimate(u, rec.peer)
			if !ok {
				c.missing++
				continue
			}
			kappa := a.kappaAt(rec, a.l[u])
			a.evals = append(a.evals, edgeEval{
				level: lvl, est: est,
				kappa: kappa, delta: a.deltaAt(rec, kappa),
				eps: rec.eps, tau: rec.tau,
			})
			if lvl > maxLevel {
				maxLevel = lvl
			}
		}
	} else {
		// Estimate(u, v), not EstimateAt: the gather doubles as a check that
		// the fold's index reads return what the pair lookups return.
		peers, dirs := a.rt.Dyn.Row(u)
		for i, dir := range dirs {
			if a.recFlags[dir]&recUp == 0 {
				continue
			}
			lvl := a.levelSlot(u, dir)
			if lvl < 1 {
				continue
			}
			est, ok := a.rt.Est.Estimate(u, int(peers[i]))
			if !ok {
				c.missing++
				continue
			}
			cls := &a.classes[a.recClass[dir]]
			kappa := a.kappaAtSlot(dir, cls.kappa, a.l[u])
			a.evals = append(a.evals, edgeEval{
				level: lvl, est: est,
				kappa: kappa, delta: a.deltaAtClass(cls, kappa),
				eps: cls.eps, tau: cls.tau,
			})
			if lvl > maxLevel {
				maxLevel = lvl
			}
		}
	}
	return a.fastTriggerRef(u, maxLevel), a.slowTriggerRef(u, maxLevel)
}

// fastTriggerRef is Definition 4.5: ∃s with a level-s neighbor ahead by
// ≥ s·κ − ε while no level-s neighbor is behind by > s·κ + 2µτ + ε.
func (a *Algorithm) fastTriggerRef(u, maxLevel int) bool {
	lu := a.l[u]
	top := a.sMax
	if maxLevel < top {
		top = maxLevel
	}
	for s := 1; s <= top; s++ {
		fs := float64(s)
		witness, blocked := false, false
		for i := range a.evals {
			ev := &a.evals[i]
			if ev.level < s {
				continue
			}
			if ev.est-lu >= fs*ev.kappa-ev.eps {
				witness = true
			}
			if lu-ev.est > fs*ev.kappa+2*a.p.Mu*ev.tau+ev.eps {
				blocked = true
				break
			}
		}
		if witness && !blocked {
			return true
		}
	}
	return false
}

// slowTriggerRef is Definition 4.6: ∃s with a level-s neighbor behind by
// ≥ (s+½)κ − δ − ε while no level-s neighbor is ahead by
// > (s+½)κ + δ + ε + µ(1+ρ)τ.
func (a *Algorithm) slowTriggerRef(u, maxLevel int) bool {
	lu := a.l[u]
	top := a.sMax
	if maxLevel < top {
		top = maxLevel
	}
	for s := 1; s <= top; s++ {
		fs := float64(s) + 0.5
		witness, blocked := false, false
		for i := range a.evals {
			ev := &a.evals[i]
			if ev.level < s {
				continue
			}
			if lu-ev.est >= fs*ev.kappa-ev.delta-ev.eps {
				witness = true
			}
			if ev.est-lu > fs*ev.kappa+ev.delta+ev.eps+a.p.Mu*(1+a.p.Rho)*ev.tau {
				blocked = true
				break
			}
		}
		if witness && !blocked {
			return true
		}
	}
	return false
}
