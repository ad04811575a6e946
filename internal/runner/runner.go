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
// Step — lets the runtime apply a crossed tick lazily at each node's next
// event touch instead of at a global barrier. The nodes no event touched
// are stepped in a completion phase when the tick fires, on every event
// shard at once. Either way StepNode(u, shard, dh) is called with shard =
// u mod K, on the worker that owns that event shard, while
// Engine.InWindow() is true and other shards step their own nodes
// concurrently. It must read only node u's own state (plus tick-stable
// shared state) and tally mode counters into the given event-shard block;
// FinishTick runs serially after the completion phase and folds the blocks
// in shard order, so counter totals stay deterministic. CanStepNodes
// returning false keeps the path off, for an algorithm whose Step is not
// the per-node StepNode applied to every node; a decorator forwards the
// wrapped algorithm's answer.
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
	// Link gives the parameters used when a scenario (or Runtime.AddEdge)
	// touches an edge that was never declared; zero value → the
	// topo.DefaultLinkParams unit conventions.
	Link topo.LinkParams
	// Scenario, when non-nil, is installed at Start (see internal/scenario).
	Scenario Scenario
	// TickParallelism is the number of worker shards the integration tick
	// fans per-node work across (drift-rate evaluation, hardware-clock
	// integration, and — through ParallelTick — the hosted algorithm's
	// decide and integrate phases). Values ≤ 1 keep the serial tick. Within
	// a tick every cross-node read is of pre-tick state and every write goes
	// to the owning shard's node range, so results are byte-identical for
	// every value; the knob trades wall-clock only. Phases fall back to the
	// serial path when the drift schedule or estimate layer does not opt
	// into the concurrency contract (drift.ConcurrentSchedule,
	// estimate.ConcurrentLayer).
	TickParallelism int
	// EventParallelism shards the discrete-event drain itself: beacon-wheel
	// fires (keyed by sending node), beacon deliveries and control
	// deliveries (keyed by receiver) move off the engine's global heap into
	// per-shard queues. Beacons drain in parallel windows bounded per
	// receiving shard by the minimum incoming link transit time
	// Delay−Uncertainty (topo.Dynamic.InTransit — the conservative PDES
	// safe horizon); controls fire one at a time on the engine's serial
	// path but no longer truncate windows; and windows may cross an
	// integration tick when the drift schedule certifies a constant-rate
	// stretch (see DESIGN.md, "Sharded event drain"). Values ≤ 1 keep the
	// serial drain. Results are byte-identical for every value; the knob
	// trades wall-clock only. Global events — ticks, topology transitions,
	// scenario steps, handshake timers — fire one at a time, with one
	// exception inside them: a crossed tick finishes its per-node work (the
	// nodes no window event touched) on all event shards in parallel.
	EventParallelism int
	// Seed feeds all randomness.
	Seed int64
}

// validate checks the configuration. Each float check is written as the
// negation of the legal range, so NaN fails it.
func (c Config) validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("runner: N must be positive, got %d", c.N)
	case !(c.Tick > 0 && c.Tick < math.Inf(1)):
		return fmt.Errorf("runner: Tick must be positive and finite, got %v", c.Tick)
	case !(c.BeaconInterval > 0 && c.BeaconInterval < math.Inf(1)):
		return fmt.Errorf("runner: BeaconInterval must be positive and finite, got %v", c.BeaconInterval)
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
	// estConcurrent and estNodeLocal are the layer's answers to the
	// estimate.ConcurrentLayer and estimate.NodeLocalLayer contracts,
	// resolved once by SetEstimator: the layer is fixed from Start on.
	estConcurrent bool
	estNodeLocal  bool
	started       bool
	dH            []float64

	// pool is the sharded-tick worker team (nil when TickParallelism ≤ 1).
	// tickT/tickDt carry the current tick into driftFn, a method value built
	// once in New so the hot tick never allocates a closure.
	pool    *par.Pool
	driftOK bool // driftSrc honors drift.ConcurrentSchedule
	tickT   sim.Time
	tickDt  float64
	driftFn func(shard, lo, hi int)
	// finishFn is finishShard bound once, so completing a crossed tick
	// allocates no method value.
	finishFn func(shard int)

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

	// Tick-crossing state. stepper is the algorithm's NodeStepper face (nil
	// when not implemented); evShards caches the engine's event shard count.
	// While lazyActive, the tick at lazyT (with hardware increment factor
	// lazyDt) has been crossed by at least one event window and is applied
	// per node at first touch: nodeEpoch[u] == epochTarget marks u as
	// already stepped. lastTick mirrors the tick ticker's previous fire
	// time so lazyDt reproduces the exact dt the barrier tick would see.
	stepper     NodeStepper
	evShards    int
	lazyActive  bool
	lazyT       sim.Time
	lazyDt      float64
	lastTick    sim.Time
	epochTarget uint32
	nodeEpoch   []uint32
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
	// The sharded drain windows on the minimum link transit time into each
	// shard — the classic conservative-PDES lookahead: no beacon can cross a
	// link in less, so events within a window cannot affect each other's
	// shards.
	engine.SetLookahead(dyn.InTransit)
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
	rt.finishFn = rt.finishShard
	rt.driftOK = concurrentSchedule(rt.driftSrc)
	rt.stretch, _ = rt.driftSrc.(drift.ConstantStretch)
	rt.envUntil = math.Inf(-1)
	if cfg.TickParallelism > 1 {
		rt.pool = par.New(cfg.TickParallelism)
	}
	rt.envShard = make([]rateRange, rt.TickShards())
	return rt, nil
}

// concurrentSchedule reports whether the schedule opted into concurrent
// per-node rate evaluation.
func concurrentSchedule(s drift.Schedule) bool {
	c, ok := s.(drift.ConcurrentSchedule)
	return ok && c.ConcurrentRates()
}

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

// BeaconInterval returns the beacon period.
func (rt *Runtime) BeaconInterval() float64 { return rt.cfg.BeaconInterval }

// Hardware returns node u's current hardware clock (for estimate layers).
func (rt *Runtime) Hardware(u int) float64 { return rt.HW[u] }

// Link returns the parameters used for scenario-created edges.
func (rt *Runtime) Link() topo.LinkParams { return rt.cfg.Link }

// AddEdge declares (if needed) edge {u,v} with the configured link
// parameters and makes it appear; endpoints discover it within τ.
func (rt *Runtime) AddEdge(u, v int) error {
	if _, ok := rt.Dyn.Params(u, v); !ok {
		if err := rt.Dyn.DeclareLink(u, v, rt.cfg.Link); err != nil {
			return err
		}
	}
	return rt.Dyn.Appear(u, v)
}

// CutEdge makes edge {u,v} disappear; endpoints detect within τ.
func (rt *Runtime) CutEdge(u, v int) error {
	return rt.Dyn.Disappear(u, v)
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
	c, ok := l.(estimate.ConcurrentLayer)
	rt.estConcurrent = ok && c.ConcurrentQueries()
	nl, ok := l.(estimate.NodeLocalLayer)
	rt.estNodeLocal = ok && nl.NodeLocalQueries()
}

// Attach installs the algorithm and wires all event routing.
func (rt *Runtime) Attach(a Algorithm) {
	rt.algo = a
	if st, ok := a.(NodeStepper); ok {
		rt.stepper = st
	} else {
		rt.stepper = nil
	}
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
	// Tick-crossing: event windows may extend past a pending integration
	// tick when the whole stack certifies the stretch quiescent (see
	// crossGate); the crossed tick is then applied lazily per node at first
	// touch. The engine calls the gate only on the parallel window path, so
	// K = 1 and the reference drain never cross.
	rt.evShards = rt.Engine.EventShards()
	rt.nodeEpoch = make([]uint32, rt.cfg.N)
	rt.Engine.SetCrossable(tk.Timer(), rt.crossGate, rt.beginCross)
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

// crossGate decides whether event windows may cross the integration tick
// pending at tickAt, covering the stretch up to the following tick. Every
// layer must certify quiescence:
//   - the algorithm can step single nodes (NodeStepper.CanStepNodes);
//   - the estimate layer reads only querying-node state
//     (estimate.NodeLocalLayer — Messaging yes, Oracle no), so an estimate
//     taken between two nodes' lazy applications cannot observe the split;
//   - the drift schedule supports concurrent rate reads and certifies
//     constant rates over [tickAt, tickAt+Tick) (drift.ConstantStretch), so
//     the lazily evaluated Rate(u, tickAt) matches the barrier tick's.
//
// The engine adds its own conditions: no serial-source (control) item
// pending before the limit, and no other global event (scenario step,
// topology transition, handshake timer) inside the crossed stretch — those
// handlers read multi-node clock state and require every tick applied.
func (rt *Runtime) crossGate(tickAt sim.Time) (sim.Time, bool) {
	st := rt.stepper
	if st == nil || !st.CanStepNodes() || !rt.driftOK || !rt.estNodeLocal {
		return 0, false
	}
	if rt.stretch == nil {
		return 0, false
	}
	limit := tickAt + rt.cfg.Tick
	if rt.stretch.RatesConstantUntil(tickAt) < limit {
		return 0, false
	}
	return limit, true
}

// beginCross arms lazy application of the tick pending at tickAt. Idempotent
// per tick: several windows can cross the same pending tick, and only the
// first may bump the epoch — a second bump would unmark already-stepped
// nodes and double-apply the tick.
func (rt *Runtime) beginCross(tickAt sim.Time) {
	if rt.lazyActive && rt.lazyT == tickAt {
		return
	}
	rt.lazyActive = true
	rt.lazyT = tickAt
	rt.lazyDt = tickAt - rt.lastTick
	rt.epochTarget++
}

// touch applies the crossed tick to node u if the event at hand is at or
// past the tick and u has not been stepped yet. Called at the top of every
// per-node event (wheel fire, beacon delivery) — during windows it runs on
// the worker owning u's event shard, so the epoch marks and the node's
// clocks are single-writer; the window barriers publish them to later
// phases.
func (rt *Runtime) touch(u int, at sim.Time) {
	if !rt.lazyActive || at < rt.lazyT || rt.nodeEpoch[u] == rt.epochTarget {
		return
	}
	rt.nodeEpoch[u] = rt.epochTarget
	rt.applyNode(u)
}

// applyNode performs node u's share of the crossed tick: hardware-clock
// integration at the certified-constant rate, then the algorithm's fused
// decide-and-integrate. Mirrors driftShard + Step exactly (same operation
// order and rounding), so a lazily applied tick is byte-identical to the
// barrier tick.
func (rt *Runtime) applyNode(u int) {
	rate := drift.Clamp(rt.driftSrc.Rate(u, rt.lazyT), rateSpan)
	dh := rate * rt.lazyDt
	rt.dH[u] = dh
	rt.HW[u] += dh
	rt.stepper.StepNode(u, u%rt.evShards, dh)
}

// wheelSource is the beacon wheel as a sharded event source. Shard s owns
// the wheel slots of the nodes u ≡ s (mod K) — the same keying as beacon
// deliveries (receiver mod K) — so during a parallel window a node's sends
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

// wheelShard is one shard's wheel cursor: the owned node sequence is
// u = shard + idx·K, and cycle counts completed walks of the whole wheel.
type wheelShard struct {
	cycle uint64
	idx   int32
	_     [6]uint64 // pad to 64 B: cursors advance concurrently during windows
}

func newWheelSource(rt *Runtime) *wheelSource {
	k := rt.Engine.EventShards()
	return &wheelSource{
		rt:       rt,
		n:        rt.cfg.N,
		k:        k,
		interval: rt.cfg.BeaconInterval,
		sh:       make([]wheelShard, k),
	}
}

// Peek implements sim.Source: the shard's next owned slot time.
func (w *wheelSource) Peek(shard int) sim.Time {
	if shard >= w.n {
		return math.Inf(1) // more shards than nodes: trailing shards idle
	}
	ws := &w.sh[shard]
	u := shard + int(ws.idx)*w.k
	slot := ws.cycle*uint64(w.n) + uint64(u)
	return w.interval * float64(slot) / float64(w.n)
}

// FireNext implements sim.Source: beacon the cursor's node and advance.
func (w *wheelSource) FireNext(shard int, now sim.Time) {
	ws := &w.sh[shard]
	u := shard + int(ws.idx)*w.k
	// A crossed tick must be applied to u before its clocks are read.
	w.rt.touch(u, now)
	b := transport.Beacon{L: w.rt.algo.Logical(u), M: w.rt.algo.MaxEstimate(u)}
	w.rt.Net.BroadcastBeaconAt(u, b, now)
	if u+w.k < w.n {
		ws.idx++
	} else {
		ws.idx = 0
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
// evaluates the adversary drift rates and integrates the hardware clocks —
// sharded when a pool exists and the schedule opted into concurrent
// evaluation, with lazily extended schedules materialized serially first
// (drift.TickPreparer) so RNG draw order matches the serial tick byte for
// byte. Phase 2 hands the increments to the algorithm, whose Step shards
// its own phases through ParallelTick. A crossed tick instead completes:
// the nodes no window event touched are stepped per event shard under
// Engine.RunShards (finishShard), and FinishTick folds the counters.
func (rt *Runtime) step(t sim.Time, dt float64) {
	if rt.lazyActive {
		// The tick was crossed: many nodes were stepped lazily at their first
		// event touch. The completion phase steps the untouched remainder on
		// every event shard at once, then FinishTick folds the per-shard mode
		// counters and the tick is complete — byte-identical to the barrier
		// path because applyNode mirrors driftShard + Step per node, every
		// node sees exactly one application, and no node's step reads
		// another node's clocks.
		if t != rt.lazyT {
			panic(fmt.Sprintf("runner: crossed tick at %v but ticker fired at %v", rt.lazyT, t))
		}
		rt.lazyActive = false
		rt.Engine.RunShards(rt.finishFn)
		rt.stepper.FinishTick()
		rt.lastTick = t
		return
	}
	rt.lastTick = t
	rt.tickT, rt.tickDt = t, dt
	for s := range rt.envShard {
		rt.envShard[s] = rateRange{lo: math.Inf(1), hi: math.Inf(-1)}
	}
	if rt.pool != nil && rt.driftOK {
		if p, ok := rt.driftSrc.(drift.TickPreparer); ok {
			p.PrepareTick(t, rt.cfg.N)
		}
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

// finishShard is the crossed tick's completion phase on event shard s: it
// steps the nodes u ≡ s (mod K) that no window event touched. This is the
// window drain's own ownership, so shard s's worker is the only writer of
// these nodes' clocks and epoch marks and of the stepper's shard-s counter
// block, and the stepper sees StepNode(u, u mod K, dh) under InWindow(),
// exactly as for a lazy touch.
func (rt *Runtime) finishShard(s int) {
	for u := s; u < rt.cfg.N; u += rt.evShards {
		if rt.nodeEpoch[u] != rt.epochTarget {
			rt.nodeEpoch[u] = rt.epochTarget
			rt.applyNode(u)
		}
	}
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
// into (≥ 1); algorithms size per-shard scratch (mode counters, neighbor
// buffers) by it at Init.
func (rt *Runtime) TickShards() int {
	if rt.pool == nil {
		return 1
	}
	return rt.pool.Workers()
}

// ParallelTick runs fn over the shard partition of [0, n) with a barrier —
// the fan-out primitive the hosted algorithm's Step phases use. It degrades
// to one inline shard when no pool is configured or the estimate layer did
// not opt into concurrent queries (estimate.ConcurrentLayer), so algorithms
// never need their own fallback. The concurrency contract of par.Pool.Run
// applies: fn must write only inside [lo, hi) and per-shard state, and read
// only state no shard writes during the call.
func (rt *Runtime) ParallelTick(n int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if rt.pool == nil || !rt.estConcurrent {
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
	// A crossed tick must be applied to the receiver before the sample is
	// stamped (RecordBeacon reads HW[to]) and the algorithm reacts.
	h.rt.touch(to, d.At)
	if h.rt.messaging != nil {
		h.rt.messaging.RecordBeacon(to, from, b, d)
	}
	h.rt.algo.OnBeacon(to, from, b, d)
}

func (h handler) OnControl(to, from int, payload any, d transport.Delivery) {
	h.rt.algo.OnControl(to, from, payload, d)
}
