// Package runner wires the simulation substrate together — engine, drifting
// hardware clocks, dynamic graph, transport and estimate layer — and hosts a
// clock synchronization algorithm on top. It owns the integration tick: per
// tick it advances hardware clocks by the adversary-chosen rates and hands
// the increments to the algorithm, which advances its logical clocks.
package runner

import (
	"fmt"
	"math"

	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// Algorithm is a clock synchronization algorithm (the paper's AOPT or a
// baseline) hosted by the runtime.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Init is called once, before any events, with the fully wired runtime.
	Init(rt *Runtime)
	// OnEdgeUp and OnEdgeDown deliver per-endpoint visibility transitions
	// (self discovered / lost the estimate edge to peer).
	OnEdgeUp(self, peer int, t sim.Time)
	OnEdgeDown(self, peer int, t sim.Time)
	// OnBeacon and OnControl deliver transport traffic addressed to `to`.
	OnBeacon(to, from int, b transport.Beacon, d transport.Delivery)
	OnControl(to, from int, payload any, d transport.Delivery)
	// Step advances logical state by one tick; dH[u] is the hardware clock
	// increment of node u during the tick.
	Step(t sim.Time, dH []float64)
	// Logical returns node u's current logical clock L_u.
	Logical(u int) float64
	// MaxEstimate returns node u's max estimate M_u (algorithms without one
	// return Logical(u)).
	MaxEstimate(u int) float64
}

// NodeStepper is the opt-in contract of tick-crossing event windows: an
// algorithm that can apply one node's integration tick in isolation —
// decide-then-integrate for a single node, byte-identical to its phased
// Step — lets the runtime apply a crossed tick one event shard at a time
// instead of at a global barrier: in the window drain just before the
// shard's first event at or after the tick, or, for a shard no window
// reached, just before the tick fires. Either way StepNode(u, shard, dh) is
// called with shard = sim.Owner(u, K) while Engine.InWindow() is true. A
// shard's calls run on one goroutine at a time, and other shards may step
// their own nodes concurrently. It must read only node u's own state (plus
// tick-stable shared state) and tally mode counters into the given
// event-shard block; FinishTick runs serially once every shard is stepped
// and folds the blocks in shard order, so counter totals stay
// deterministic. Start asks CanStepNodes once: false keeps the path off for
// the whole run, for an algorithm whose Step is not the per-node StepNode
// applied to every node; a decorator forwards the wrapped algorithm's
// answer.
type NodeStepper interface {
	CanStepNodes() bool
	StepNode(u, shard int, dh float64)
	FinishTick()
}

// Scenario drives dynamic-network behavior against a running runtime:
// topology churn, mobility, partitions, edge flaps. Implementations live in
// internal/scenario and are installed once, at Start, with a dedicated RNG
// stream so scenario randomness never perturbs the other adversaries.
type Scenario interface {
	Install(rt *Runtime, rng *sim.RNG)
}

// Config assembles a runtime.
type Config struct {
	// N is the number of nodes.
	N int
	// Tick is the integration step dt.
	Tick float64
	// BeaconInterval is the per-node beacon period (staggered across nodes).
	BeaconInterval float64
	// Drift is the hardware clock adversary.
	Drift drift.Schedule
	// Delay is the message delay adversary.
	Delay transport.DelayPolicy
	// Link gives the parameters used when a scenario (or Runtime.AddEdge
	// and CutEdge) touches an edge that is not declared, never or no
	// longer; zero value → the topo.DefaultLinkParams unit conventions.
	Link topo.LinkParams
	// Scenario, when non-nil, is installed at Start (see internal/scenario).
	Scenario Scenario
	// TickParallelism is the number of worker shards the integration tick
	// fans per-node work across (drift-rate evaluation, hardware-clock
	// integration, and — through ParallelTick — the hosted algorithm's
	// decide and integrate phases). Values ≤ 1 keep the serial tick, and so
	// does a network of fewer than inlineTickNodes (12,000) nodes, whose tick
	// runs faster on the calling goroutine than fanned out (TickShards then
	// reports 1). Within a tick every cross-node read is of pre-tick state
	// and every write goes to the owning shard's node range, so results are
	// byte-identical for every value; the knob trades wall-clock only. The
	// drift schedule and the estimate layer must allow that (drift.Schedule,
	// estimate.Layer).
	TickParallelism int
	// EventParallelism shards the discrete-event drain itself: beacon-wheel
	// fires (keyed by sending node), beacon deliveries and control
	// deliveries (keyed by receiver) move off the engine's global heap into
	// per-shard queues. Beacons drain in parallel windows bounded by the
	// minimum link transit time Delay−Uncertainty over every declared link
	// (topo.Dynamic.MinTransit — the conservative PDES safe horizon);
	// controls fire one at a time on the engine's serial path but no longer
	// truncate windows; and on messaging estimates with an algorithm that
	// steps single nodes, windows may cross an integration tick (see Start
	// and DESIGN.md, "Sharded event drain"). Values ≤ 1 keep the serial
	// drain. Results are byte-identical for every value; the knob trades
	// wall-clock only. Global events — ticks, topology transitions, scenario
	// steps, handshake timers — fire one at a time. A crossed tick's
	// per-node work runs per event shard: inside the windows that reach the
	// tick, and for the shards none reached, serially as the tick fires.
	EventParallelism int
	// Seed feeds all randomness.
	Seed int64
}

// minStep is the shortest Tick or BeaconInterval a run accepts: 10⁹ steps
// per simulated unit. By t = 10⁶ the engine clock's spacing is already
// 1.2e-10, so much shorter steps would stop advancing the clock, and a
// RunFor would never return.
const minStep = 1e-9

// validate checks the configuration. Each float check is written as the
// negation of the legal range, so NaN fails it.
func (c Config) validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("runner: N must be positive, got %d", c.N)
	case !(c.Tick >= minStep && c.Tick < math.Inf(1)):
		return fmt.Errorf("runner: Tick must be finite and at least %v, got %v", minStep, c.Tick)
	case !(c.BeaconInterval >= minStep && c.BeaconInterval < math.Inf(1)):
		return fmt.Errorf("runner: BeaconInterval must be finite and at least %v, got %v", minStep, c.BeaconInterval)
	}
	return nil
}

// Runtime is the wired simulation world an algorithm runs in.
type Runtime struct {
	Engine *sim.Engine
	Dyn    *topo.Dynamic
	Net    *transport.Network
	RNG    *sim.RNG
	// Est is the estimate layer; set by SetEstimator before Start.
	Est estimate.Layer
	// HW holds the hardware clocks, integrated by the runtime.
	HW []float64

	cfg Config
	// driftSrc is the schedule, fixed for the runtime's life: an algorithm
	// may rely on the rate envelope for as long as the stretch it reports.
	driftSrc  drift.Schedule
	algo      Algorithm
	messaging *estimate.Messaging // non-nil when the estimate layer is message-based
	started   bool
	dH        []float64

	// pool is the sharded-tick worker team (nil when the tick runs on the
	// calling goroutine: TickParallelism ≤ 1 or N < inlineTickNodes).
	// tickT/tickDt carry the current tick into driftFn, a method value built
	// once in New so the hot tick never allocates a closure.
	pool    *par.Pool
	tickT   sim.Time
	tickDt  float64
	driftFn func(shard, lo, hi int)

	// The rate envelope (RateEnvelope): the lowest and highest clamped rate
	// of the last barrier tick and the end of the constant-rate stretch
	// from its time. stretch is the schedule's drift.ConstantStretch face,
	// nil when it certifies none; envShard holds each tick shard's extremes
	// until the drift phase's barrier merges them.
	stretch      drift.ConstantStretch
	envLo, envHi float64
	envUntil     sim.Time
	envShard     []rateRange

	// wheel is the beacon wheel: a sharded event source that walks the
	// nodes in staggered order (replacing first the N per-node tickers,
	// then the single wheel timer of earlier runtimes), so beacon fires
	// parallelize with the rest of the sharded event drain.
	wheel *wheelSource

	// Tick-crossing state. stepper is the algorithm's NodeStepper face, set
	// by Start when ticks may be crossed (nil otherwise). While crossed, the
	// tick at crossT (with hardware increment factor crossDt) has been
	// crossed by at least one event window, and the engine applies it one
	// event shard at a time (stepShard). lastTick mirrors the tick ticker's
	// previous fire time so crossDt reproduces the exact dt the barrier tick
	// would see.
	stepper  NodeStepper
	crossed  bool
	crossT   sim.Time
	crossDt  float64
	lastTick sim.Time
}

// New builds a runtime. The estimate layer and algorithm are attached
// afterwards (SetEstimator / Attach) because they need the runtime itself.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Drift == nil {
		cfg.Drift = drift.Perfect()
	}
	if cfg.Link == (topo.LinkParams{}) {
		cfg.Link = topo.DefaultLinkParams()
	}
	engine := sim.NewEngine()
	engine.SetEventParallelism(cfg.EventParallelism)
	rng := sim.NewRNG(cfg.Seed)
	dyn := topo.NewDynamic(cfg.N, engine, rng.Split())
	// The sharded drain windows on the minimum link transit time — the
	// classic conservative-PDES lookahead: no beacon can cross a link in
	// less, so events within a window cannot affect each other's shards.
	engine.SetLookahead(dyn.MinTransit)
	net := transport.NewNetwork(engine, dyn, rng.Split(), cfg.Delay)
	rt := &Runtime{
		Engine:   engine,
		Dyn:      dyn,
		Net:      net,
		RNG:      rng,
		HW:       make([]float64, cfg.N),
		cfg:      cfg,
		driftSrc: cfg.Drift,
		// dH is allocated here, not lazily in the first tick, so the hot
		// path carries no nil check and the slice pointer the sharded
		// closures capture is stable for the runtime's lifetime.
		dH: make([]float64, cfg.N),
	}
	rt.driftFn = rt.driftShard
	rt.stretch, _ = rt.driftSrc.(drift.ConstantStretch)
	rt.envUntil = math.Inf(-1)
	if cfg.TickParallelism > 1 && cfg.N >= poolNodes {
		rt.pool = par.New(cfg.TickParallelism)
	}
	rt.envShard = make([]rateRange, rt.TickShards())
	return rt, nil
}

// inlineTickNodes is the network size, in nodes, below which New builds no
// tick pool: the drift phase and every ParallelTick phase run on the calling
// goroutine, exactly as at TickParallelism 1. Each of a barrier tick's three
// fan-outs (drift, decide, integrate) costs a wake-up and a barrier and
// moves the per-node state the phase touches to the other worker's core and
// back, which on small networks costs more than the second core saves. A
// sweep of N at K = 2 on a 2-vCPU Xeon VM sizes it, alternating whole runs
// with every tick inline and every tick pooled (3 to 7 pairs per point;
// median change inline vs pooled): geometric mobility with churn waves ran
// +15% to +16% at 5·10³ and 10⁴ nodes, +9% at 1.2·10⁴, −3% to +3% from
// 1.5·10⁴ to 3·10⁴ and −15% at 6·10⁴; oracle rings with chord churn ran −1%
// and −3% at 10⁴ and 1.2·10⁴, then −7% to −16% from 1.4·10⁴ up. Messaging
// rings, whose windows mostly cross the tick, show no difference the sweep
// resolves below the constant: 12 pairs each at 5·10³ and 10⁴ nodes read
// medians of +0.9% and +1.8%, inline ahead in 7 of 12, with quartiles on
// both sides of zero; above it they ran −3% to −8% and −21% at 10⁵. The
// oracle ring's crossover is the lowest, and the constant sits at it:
// geo-mobile-10k ticks inline, and ring-messaging-100k keeps its pool.
// DESIGN.md ("Tick executor") has the full measurement.
const inlineTickNodes = 12_000

// poolNodes is the size rule's threshold, inlineTickNodes. Like sim.Engine's
// inlineItems it has no setter: only this package's tests change it
// (export_test.go), to 0, which builds the pool at every size so the small
// differentials keep replaying concurrent ticks.
var poolNodes = inlineTickNodes

// N returns the node count.
func (rt *Runtime) N() int { return rt.cfg.N }

// Tick returns the integration step.
func (rt *Runtime) Tick() float64 { return rt.cfg.Tick }

// rateSpan bounds every hardware rate the runtime integrates to
// [1−rateSpan, 1+rateSpan] = [0, 2] (drift.Clamp). Schedules keep their own
// drift bound ρ < 1; this clamp is only the runtime's defensive envelope,
// and the one bound on a tick's increment that holds for every schedule.
const rateSpan = 1

// MaxIncrement bounds the hardware increment of any one tick: the clamp's
// top rate times the tick length. The ticker's dt is a difference of two
// engine times, within a rounding unit of the engine clock of Tick; the
// relative slack of 1e-6 covers that for the first 2⁵²·10⁻⁶ ≈ 4.5·10⁹
// ticks of a run.
func (rt *Runtime) MaxIncrement() float64 { return (1 + rateSpan) * rt.cfg.Tick * (1 + 1e-6) }

// Hardware returns node u's current hardware clock (for estimate layers).
func (rt *Runtime) Hardware(u int) float64 { return rt.HW[u] }

// Link returns the parameters used for scenario-created edges.
func (rt *Runtime) Link() topo.LinkParams { return rt.cfg.Link }

// AddEdge declares (if needed) edge {u,v} with the configured link
// parameters and makes it appear; endpoints discover it within τ. A link
// dead for longer than its quarantine (topo.Dynamic.Declared) is declared
// afresh, with the configured parameters whatever it was declared with
// before.
func (rt *Runtime) AddEdge(u, v int) error {
	if err := rt.declare(u, v); err != nil {
		return err
	}
	return rt.Dyn.Appear(u, v)
}

// CutEdge makes edge {u,v} disappear; endpoints detect within τ. Like
// AddEdge it declares the link first when it has none, so a generator
// that cuts a link it last saw up, which another generator has cut since,
// more than a quarantine ago, cuts it as it would cut any link that is
// already down: each endpoint draws its detection lag and observes
// nothing new.
func (rt *Runtime) CutEdge(u, v int) error {
	if err := rt.declare(u, v); err != nil {
		return err
	}
	return rt.Dyn.Disappear(u, v)
}

// declare declares {u,v} with the configured link parameters unless it has
// a link (topo.Dynamic.Declared); a link dead for longer than its
// quarantine is declared afresh, whether or not the topology has forgotten
// it yet.
func (rt *Runtime) declare(u, v int) error {
	if rt.Dyn.Declared(u, v) {
		return nil
	}
	return rt.Dyn.DeclareLink(u, v, rt.cfg.Link)
}

// SetEstimator installs the estimate layer. When the layer is the messaging
// implementation, the runtime feeds it beacons and invalidations. The layer
// is fixed from Start on, so calling SetEstimator after Start panics: state
// derived from the old layer's answers, such as core's quiet-node
// certificates, would outlive the swap.
func (rt *Runtime) SetEstimator(l estimate.Layer) {
	if rt.started {
		panic("runner: SetEstimator after Start")
	}
	rt.Est = l
	rt.messaging, _ = l.(*estimate.Messaging)
}

// Attach installs the algorithm and wires all event routing.
func (rt *Runtime) Attach(a Algorithm) {
	rt.algo = a
	rt.Dyn.SetListener(listener{rt})
	rt.Net.SetHandler(handler{rt})
	a.Init(rt)
}

// Start schedules the integration tick and beacon cadence; call after the
// topology is installed and the algorithm attached, before Run.
func (rt *Runtime) Start() error {
	if rt.algo == nil {
		return fmt.Errorf("runner: Start before Attach")
	}
	if rt.Est == nil {
		return fmt.Errorf("runner: Start before SetEstimator")
	}
	if rt.started {
		return fmt.Errorf("runner: Start called twice")
	}
	rt.started = true
	// The scenario draws from its own RNG stream, split off only when a
	// scenario is present so scenario-free runs keep their historical
	// randomness byte for byte.
	if rt.cfg.Scenario != nil {
		rt.cfg.Scenario.Install(rt, rt.RNG.Split())
	}
	tk := rt.Engine.NewTicker(rt.cfg.Tick, rt.cfg.Tick, rt.step)
	// Tick crossing: event windows may run past a pending integration tick
	// up to the next one, and the engine then applies the crossed tick one
	// event shard at a time (stepShard). That is sound when a node's tick
	// can be applied apart from the others', which two facts fixed from
	// here on decide for the whole run:
	//   - the algorithm can step single nodes (NodeStepper.CanStepNodes);
	//   - the estimate layer is the messaging layer, whose queries for node
	//     u read only u's samples, u's hardware clock and tick-stable
	//     topology, so an estimate taken between two shards' applications
	//     of the tick cannot observe the split; the oracle reads the peer's
	//     true clock, so crossing stays off for oracle-backed runs.
	// The drift schedule needs no clause: stepShard integrates with the
	// rate and dt the barrier tick would use. The engine adds its own
	// conditions per tick: no serial-source (control) item pending before
	// the next tick, and no other global event (scenario step, topology
	// transition, handshake timer) inside the crossed stretch — those
	// handlers read multi-node clock state and require every tick applied.
	// Only the parallel window path crosses, so K = 1 never does.
	if st, ok := rt.algo.(NodeStepper); ok && st.CanStepNodes() && rt.messaging != nil {
		rt.stepper = st
		rt.Engine.SetCrossable(tk, rt.beginCross, rt.stepShard)
	}
	// Beacon wheel: slot k fires at BeaconInterval·k/N and beacons node
	// k mod N, giving every node the period BeaconInterval at the same
	// staggered offsets (u/N · interval) the per-node tickers used. It
	// registers after the transport (which NewNetwork registered its beacon
	// and control queues with), so at equal times a node receives its due
	// beacons before it sends.
	rt.wheel = newWheelSource(rt)
	rt.Engine.AddSource(rt.wheel)
	return nil
}

// beginCross arms the tick pending at tickAt, which the first event window
// crossing it calls serially before it opens.
func (rt *Runtime) beginCross(tickAt sim.Time) {
	rt.crossed = true
	rt.crossT = tickAt
	rt.crossDt = tickAt - rt.lastTick
}

// stepShard applies the crossed tick to event shard s: for every node u
// that s owns (sim.Owner), hardware-clock integration at Rate(u, crossT)
// over crossDt, the rate and dt of the barrier tick, then the algorithm's
// fused decide-and-integrate. The engine calls it once per shard, under
// InWindow() on the goroutine that owns the shard, so the nodes' clocks and
// the stepper's shard-s counter block have one writer, and Rate is called
// for distinct nodes only, which every drift.Schedule allows concurrently.
// It mirrors driftShard + Step exactly (same operation order and rounding),
// so a crossed tick is byte-identical to the barrier tick under every drift
// schedule: hardware clocks change only at ticks, Listing 3 decides each
// node from its own pre-tick state, and every event of these nodes at or
// after the tick comes after the step. It leaves dH alone: only a barrier
// tick's Step reads dH, and driftShard rewrites every entry before that.
func (rt *Runtime) stepShard(s int) {
	k := rt.Engine.EventShards()
	for u := sim.FirstOwned(s, k); u < rt.cfg.N; u = sim.NextOwned(u, k) {
		rate := drift.Clamp(rt.driftSrc.Rate(u, rt.crossT), rateSpan)
		dh := rate * rt.crossDt
		rt.HW[u] += dh
		rt.stepper.StepNode(u, s, dh)
	}
}

// wheelSource is the beacon wheel as a sharded event source. Shard s owns
// the wheel slots of the nodes it owns (sim.Owner) — the same keying as
// beacon deliveries, by receiver — so during a parallel window a node's sends
// read its logical clock and max estimate on the shard that also owns every
// write to them. Slot times are computed absolutely (not accumulated) from
// the slot index, so the stagger stays exact over arbitrarily long runs and
// is bit-identical at every shard count.
type wheelSource struct {
	rt       *Runtime
	n, k     int
	interval float64
	sh       []wheelShard
}

// wheelShard is one shard's wheel cursor: u is the next node of the
// shard's owned sequence (sim.FirstOwned, sim.NextOwned) to beacon, and
// cycle counts completed walks of the whole wheel.
type wheelShard struct {
	cycle uint64
	u     int32
	_     [6]uint64 // pad to 64 B: cursors advance concurrently during windows
}

func newWheelSource(rt *Runtime) *wheelSource {
	k := rt.Engine.EventShards()
	w := &wheelSource{
		rt:       rt,
		n:        rt.cfg.N,
		k:        k,
		interval: rt.cfg.BeaconInterval,
		sh:       make([]wheelShard, k),
	}
	for s := range w.sh {
		w.sh[s].u = int32(sim.FirstOwned(s, k))
	}
	return w
}

// Peek implements sim.Source: the shard's next owned slot time.
func (w *wheelSource) Peek(shard int) sim.Time {
	ws := &w.sh[shard]
	if int(ws.u) >= w.n {
		return math.Inf(1) // more shards than nodes: trailing shards idle
	}
	slot := ws.cycle*uint64(w.n) + uint64(ws.u)
	return w.interval * float64(slot) / float64(w.n)
}

// FireNext implements sim.Source: beacon the cursor's node and advance.
func (w *wheelSource) FireNext(shard int, now sim.Time) {
	ws := &w.sh[shard]
	u := int(ws.u)
	b := transport.Beacon{L: w.rt.algo.Logical(u), M: w.rt.algo.MaxEstimate(u)}
	w.rt.Net.BroadcastBeaconAt(u, b, now)
	if next := sim.NextOwned(u, w.k); next < w.n {
		ws.u = int32(next)
	} else {
		ws.u = int32(sim.FirstOwned(shard, w.k))
		ws.cycle++
	}
}

// Flush implements sim.Source: the wheel stages nothing cross-shard (its
// sends stage through the transport's own mailboxes).
func (w *wheelSource) Flush(int) {}

// Run advances the simulation to the given time.
func (rt *Runtime) Run(until sim.Time) { rt.Engine.RunUntil(until) }

// Algo returns the hosted algorithm.
func (rt *Runtime) Algo() Algorithm { return rt.algo }

// step is the integration tick. A barrier tick runs two phases. Phase 1
// evaluates the adversary drift rates and integrates the hardware clocks,
// sharded when a pool exists. Phase 2 hands the increments to the
// algorithm, whose Step shards its own phases through ParallelTick. A
// crossed tick has already been applied to every event shard (stepShard)
// when it fires, so it only folds the counters (FinishTick).
func (rt *Runtime) step(t sim.Time, dt float64) {
	if rt.crossed {
		if t != rt.crossT {
			panic(fmt.Sprintf("runner: crossed tick at %v but ticker fired at %v", rt.crossT, t))
		}
		rt.crossed = false
		rt.stepper.FinishTick()
		rt.lastTick = t
		return
	}
	rt.lastTick = t
	rt.tickT, rt.tickDt = t, dt
	for s := range rt.envShard {
		rt.envShard[s] = rateRange{lo: math.Inf(1), hi: math.Inf(-1)}
	}
	if rt.pool != nil {
		rt.pool.Run(rt.cfg.N, rt.driftFn)
	} else {
		rt.driftShard(0, 0, rt.cfg.N)
	}
	rt.measureEnvelope(t)
	rt.algo.Step(t, rt.dH)
}

// rateRange is one tick shard's lowest and highest clamped rate, padded so
// the shards' concurrent writes never share a cache line.
type rateRange struct {
	lo, hi float64
	_      [6]uint64
}

// measureEnvelope merges the shards' rate extremes of the barrier tick at t
// and asks the schedule how long its rates stay constant from t. A schedule
// that certifies no stretch gets the empty stretch [t, t).
func (rt *Runtime) measureEnvelope(t sim.Time) {
	rt.envLo, rt.envHi = math.Inf(1), math.Inf(-1)
	for _, r := range rt.envShard {
		rt.envLo, rt.envHi = min(rt.envLo, r.lo), max(rt.envHi, r.hi)
	}
	rt.envUntil = t
	if rt.stretch != nil {
		rt.envUntil = rt.stretch.RatesConstantUntil(t)
	}
}

// RateEnvelope bounds the hardware rates ahead: lo and hi are the lowest and
// highest clamped rate that the last barrier tick, at time t, integrated,
// and every node keeps its rate of that tick on [t, until), the schedule's
// constant-rate stretch (drift.ConstantStretch). So every tick the ticker
// fires before until integrates each node at a rate within [lo, hi],
// whether the tick is a barrier or a crossed one. A schedule that certifies
// no stretch reports until = t, and before the first tick until is −Inf.
func (rt *Runtime) RateEnvelope() (lo, hi float64, until sim.Time) {
	return rt.envLo, rt.envHi, rt.envUntil
}

// driftShard integrates the hardware clocks of nodes [lo, hi): reads are the
// tick time and the (tick-stable) schedule, writes touch only the shard's
// own dH/HW entries and its envShard slot.
func (rt *Runtime) driftShard(shard, lo, hi int) {
	t, dt := rt.tickT, rt.tickDt
	dH, hw := rt.dH, rt.HW
	env := rateRange{lo: math.Inf(1), hi: math.Inf(-1)}
	for u := lo; u < hi; u++ {
		rate := drift.Clamp(rt.driftSrc.Rate(u, t), rateSpan)
		if rate < env.lo {
			env.lo = rate
		}
		if rate > env.hi {
			env.hi = rate
		}
		dH[u] = rate * dt
		hw[u] += dH[u]
	}
	rt.envShard[shard] = env
}

// TickShards returns the number of shards ParallelTick may split node work
// into (≥ 1; 1 when New built no pool); algorithms size per-shard scratch
// (mode counters, neighbor buffers) by it at Init.
func (rt *Runtime) TickShards() int {
	if rt.pool == nil {
		return 1
	}
	return rt.pool.Workers()
}

// ParallelTick runs fn over the shard partition of [0, n) with a barrier —
// the fan-out primitive the hosted algorithm's Step phases use. It degrades
// to one inline shard when New built no pool (TickParallelism ≤ 1 or fewer
// than inlineTickNodes nodes), so algorithms never need their own fallback.
// The concurrency contract of par.Pool.Run applies: fn must write only
// inside [lo, hi) and per-shard state, and read only state no shard writes
// during the call.
func (rt *Runtime) ParallelTick(n int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if rt.pool == nil {
		fn(0, 0, n)
		return
	}
	rt.pool.Run(n, fn)
}

// listener forwards topology transitions to the estimate layer and algorithm.
type listener struct{ rt *Runtime }

func (l listener) EdgeUp(self, peer int, t sim.Time) {
	l.rt.algo.OnEdgeUp(self, peer, t)
}

func (l listener) EdgeDown(self, peer int, t sim.Time) {
	if l.rt.messaging != nil {
		l.rt.messaging.Invalidate(self, peer)
	}
	l.rt.algo.OnEdgeDown(self, peer, t)
}

// handler forwards transport deliveries.
type handler struct{ rt *Runtime }

func (h handler) OnBeacon(to, from int, b transport.Beacon, d transport.Delivery) {
	if h.rt.messaging != nil {
		h.rt.messaging.RecordBeacon(to, from, b, d)
	}
	h.rt.algo.OnBeacon(to, from, b, d)
}

func (h handler) OnControl(to, from int, payload any, d transport.Delivery) {
	h.rt.algo.OnControl(to, from, payload, d)
}
