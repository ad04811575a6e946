package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// spanKind names the algorithm entry points the decorator times.
type spanKind int

const (
	spanStep     spanKind = iota // barrier integration tick (decide + integrate)
	spanStepNode                 // one node's lazily applied crossed tick
	spanBeacon                   // beacon delivery
	spanControl                  // insertion-handshake control delivery
	spanEdge                     // edge up/down notification
	numSpans
)

var spanNames = [numSpans]string{"step", "stepnode", "beacon", "control", "edge"}

// hotSample is the sampling period of the per-event spans: beacon and
// stepnode fire millions of times per simulated unit at about 100 ns each,
// so only every hotSample-th call reads the clock (two reads cost about
// 120 ns here) and the summed self time is scaled up by calls/timed.
const hotSample = 8

// acc is one goroutine's tally per span kind. Padded so the two window
// workers never share a cache line.
type acc struct {
	calls, timed [numSpans]uint64
	ns           [numSpans]int64
	_            [64]byte
}

// tally is the summed content of a set of accumulators.
type tally struct {
	calls [numSpans]uint64
	ns    [numSpans]float64 // estimated self time: timed ns × calls/timed
}

func (a *acc) add(t *tally) {
	for k := range a.calls {
		t.calls[k] += a.calls[k]
		if a.timed[k] > 0 {
			t.ns[k] += float64(a.ns[k]) * float64(a.calls[k]) / float64(a.timed[k])
		}
	}
}

func (t tally) sub(o tally) tally {
	for k := range t.calls {
		t.calls[k] -= o.calls[k]
		t.ns[k] -= o.ns[k]
	}
	return t
}

// tracedAlgo is a timing decorator over AOPT. It forwards runner.Algorithm
// and runner.NodeStepper, so the runtime keeps tick crossing enabled.
// Calls made inside a parallel drain window tally into the accumulator of
// their event shard (a beacon runs on its receiver's shard, a crossed tick
// on its node's), which only that shard's worker writes; all other calls
// run on the engine goroutine and tally into the last accumulator.
type tracedAlgo struct {
	a      *core.Algorithm
	engine *sim.Engine
	k      int
	accs   []acc
}

var (
	_ runner.Algorithm   = (*tracedAlgo)(nil)
	_ runner.NodeStepper = (*tracedAlgo)(nil)
)

func (t *tracedAlgo) slot(u int) *acc {
	if t.engine.InWindow() {
		return &t.accs[u%t.k]
	}
	return &t.accs[t.k]
}

func (s *acc) stop(k spanKind, t0 time.Time) {
	s.timed[k]++
	s.ns[k] += int64(time.Since(t0))
}

// windowed and serial split the tally into work done inside parallel drain
// windows and work done on the engine goroutine.
func (t *tracedAlgo) windowed() (w tally) {
	for i := 0; i < t.k; i++ {
		t.accs[i].add(&w)
	}
	return w
}

func (t *tracedAlgo) serial() (s tally) {
	t.accs[t.k].add(&s)
	return s
}

func (t *tracedAlgo) Name() string              { return t.a.Name() }
func (t *tracedAlgo) Init(rt *runner.Runtime)   { t.a.Init(rt) }
func (t *tracedAlgo) Logical(u int) float64     { return t.a.Logical(u) }
func (t *tracedAlgo) MaxEstimate(u int) float64 { return t.a.MaxEstimate(u) }
func (t *tracedAlgo) CanStepNodes() bool        { return t.a.CanStepNodes() }
func (t *tracedAlgo) FinishTick()               { t.a.FinishTick() }

func (t *tracedAlgo) OnEdgeUp(self, peer int, at sim.Time) {
	s := t.slot(self)
	s.calls[spanEdge]++
	t0 := time.Now()
	t.a.OnEdgeUp(self, peer, at)
	s.stop(spanEdge, t0)
}

func (t *tracedAlgo) OnEdgeDown(self, peer int, at sim.Time) {
	s := t.slot(self)
	s.calls[spanEdge]++
	t0 := time.Now()
	t.a.OnEdgeDown(self, peer, at)
	s.stop(spanEdge, t0)
}

func (t *tracedAlgo) OnControl(to, from int, payload any, d transport.Delivery) {
	s := t.slot(to)
	s.calls[spanControl]++
	t0 := time.Now()
	t.a.OnControl(to, from, payload, d)
	s.stop(spanControl, t0)
}

func (t *tracedAlgo) Step(at sim.Time, dH []float64) {
	s := t.slot(0)
	s.calls[spanStep]++
	t0 := time.Now()
	t.a.Step(at, dH)
	s.stop(spanStep, t0)
}

func (t *tracedAlgo) OnBeacon(to, from int, b transport.Beacon, d transport.Delivery) {
	s := t.slot(to)
	s.calls[spanBeacon]++
	if s.calls[spanBeacon]%hotSample != 0 {
		t.a.OnBeacon(to, from, b, d)
		return
	}
	t0 := time.Now()
	t.a.OnBeacon(to, from, b, d)
	s.stop(spanBeacon, t0)
}

func (t *tracedAlgo) StepNode(u, shard int, dh float64) {
	s := t.slot(u)
	s.calls[spanStepNode]++
	if s.calls[spanStepNode]%hotSample != 0 {
		t.a.StepNode(u, shard, dh)
		return
	}
	t0 := time.Now()
	t.a.StepNode(u, shard, dh)
	s.stop(spanStepNode, t0)
}

// tracedNet is the simulated stack assembled by hand, with the decorator
// attached in place of the bare algorithm.
type tracedNet struct {
	rt        *runner.Runtime
	algo      *core.Algorithm
	tr        *tracedAlgo
	messaging *estimate.Messaging // nil on oracle estimates
	probe     estimate.Layer      // the layer the estimate sweep queries
}

// buildTraced assembles the stack gradsync.New builds for spec, step for
// step and with the same random streams, so the decorated run must end in
// the same clocks. It uses the public defaults gradsync.Config fills in:
// µ = 0.1, ρ = µ/60, κ factor 1.1, tick 0.02, beacon interval 0.25,
// default links, random delays and static insertion.
func buildTraced(spec netSpec, seed int64, sc runner.Scenario) (*tracedNet, error) {
	const (
		mu          = 0.1
		rho         = mu / 60
		kappaFactor = 1.1
		tick        = 0.02
		beacon      = 0.25
	)
	link := topo.DefaultLinkParams()
	rt, err := runner.New(runner.Config{
		N:                spec.n,
		Tick:             tick,
		BeaconInterval:   beacon,
		Drift:            drift.TwoGroup{Rho: rho, Split: spec.n / 2},
		Delay:            transport.RandomDelay{},
		Link:             link,
		Scenario:         sc,
		TickParallelism:  shards,
		EventParallelism: shards,
		Seed:             seed,
	})
	if err != nil {
		return nil, err
	}
	// gradsync.New hands the topology builder its own stream even when the
	// builder draws nothing from it.
	rt.RNG.Split()
	edges := spec.edges()
	for _, e := range edges {
		if err := rt.Dyn.DeclareLink(e.U, e.V, link); err != nil {
			return nil, err
		}
	}
	tn := &tracedNet{rt: rt}
	logical := func(u int) float64 { return tn.algo.Logical(u) }
	if spec.oracle {
		rt.SetEstimator(estimate.NewOracle(rt.Dyn, logical, estimate.NewPerNodeRandomError(spec.n, rt.RNG.Split())))
		// The sweep queries a twin oracle with its own error streams: a
		// query draws from the querying node's stream, so sweeping the live
		// layer would change the run.
		tn.probe = estimate.NewOracle(rt.Dyn, logical, estimate.NewPerNodeRandomError(spec.n, sim.NewRNG(seed)))
	} else {
		tn.messaging = estimate.NewMessaging(spec.n, rt.Dyn, rt.Hardware, estimate.MessagingConfig{
			Rho: rho, Mu: mu, BeaconInterval: beacon, TickSlop: 2 * tick,
		})
		rt.SetEstimator(tn.messaging)
		tn.probe = tn.messaging
	}
	// G̃ as gradsync derives it from the diameter hint.
	perHop := link.Uncertainty + 2*tick + 4*rho*(beacon+link.Delay+link.Uncertainty)
	gTilde := 1.4*(float64(spec.diameter)*perHop+0.05) + 0.5
	tn.algo, err = core.New(core.Params{Rho: rho, Mu: mu, KappaFactor: kappaFactor, GTilde: gTilde, Insertion: core.InsertStatic})
	if err != nil {
		return nil, err
	}
	k := rt.Engine.EventShards()
	tn.tr = &tracedAlgo{a: tn.algo, engine: rt.Engine, k: k, accs: make([]acc, k+1)}
	rt.Attach(tn.tr)
	for _, e := range edges {
		if err := rt.Dyn.AppearInstant(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return tn, rt.Start()
}

// span is one layer's share of one slice, written out as a JSON line.
type span struct {
	Slice   int     `json:"slice"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartNs int64   `json:"start_ns,omitempty"`
	EndNs   int64   `json:"end_ns,omitempty"`
	Calls   uint64  `json:"calls"`
	SelfNs  float64 `json:"self_ns"`
}

// tracedRun is the outcome of the traced simulator run.
type tracedRun struct {
	net             *tracedNet
	slices          []float64 // ms per slice
	spans           []span
	serial, window  tally
	drainNs         float64
	sweepNs         float64
	sweepQueries    int
	sweepMisses     uint64
	fingerprint     string
	layers          map[string]float64 // per-layer simulator figures
	conflictOrErr   bool               // trigger conflict or scenario error in the traced stack
	replay          *simRun            // the untraced gradsync.New run over the same slices
	fingerprintsMet bool
}

func (r *tracedRun) units() float64 { return float64(len(r.slices)) * sliceUnits }

// runTracedSim runs the decorated stack for budget, recording one span per
// layer per slice, then replays the same number of slices untraced through
// gradsync.New and compares the final clocks.
func runTracedSim(spec netSpec, seed int64, budget time.Duration) (*tracedRun, error) {
	sc, stats := spec.scenario()
	tn, err := buildTraced(spec, seed, sc)
	if err != nil {
		return nil, fmt.Errorf("traced stack: %w", err)
	}
	r := &tracedRun{net: tn}
	// The replay probes the host between slices (runSim), which evicts the
	// simulator's working set from the cache; the traced run does the same
	// so the overhead figure compares like with like.
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	sinceProbe := 0.0
	eng := tn.rt.Engine
	var (
		prevSerial, prevWindow tally
		prevDrain              = eng.DrainStats()
		prevStepped            = eng.Stepped
		prevSent               = tn.rt.Net.Sent()
		prevEdgeEvents         int
		edges                  []topo.EdgeID
		origin                 = time.Now()
	)
	slices, deadline := spec.slicesFor(budget), origin.Add(overrun(budget))
	for i := 0; i < slices && time.Now().Before(deadline); i++ {
		t0 := time.Now()
		tn.rt.Run(eng.Now() + sliceUnits)
		t1 := time.Now()
		wall := float64(t1.Sub(t0).Nanoseconds())
		r.slices = append(r.slices, wall/1e6)
		if sinceProbe += wall / 1e6; sinceProbe >= probeEveryMs {
			probe.run()
			sinceProbe = 0
		}

		serial, window := tn.tr.serial(), tn.tr.windowed()
		ds, dw := serial.sub(prevSerial), window.sub(prevWindow)
		prevSerial, prevWindow = serial, window
		// Window work runs on all event shards at once, so it covers 1/k of
		// its summed time on the wall clock.
		var serialNs, windowNs float64
		for k := spanKind(0); k < numSpans; k++ {
			serialNs += ds.ns[k]
			windowNs += dw.ns[k]
			r.spans = append(r.spans, span{Slice: i, Name: "core." + spanNames[k], Parent: "slice",
				Calls: ds.calls[k] + dw.calls[k], SelfNs: ds.ns[k] + dw.ns[k]})
		}
		drain := wall - serialNs - windowNs/float64(tn.tr.k)
		r.drainNs += drain
		r.spans = append(r.spans, span{Slice: i, Name: "slice", StartNs: t0.Sub(origin).Nanoseconds(),
			EndNs: t1.Sub(origin).Nanoseconds(), Calls: 1, SelfNs: drain})
		dr := eng.DrainStats()
		st := stats()
		r.spans = append(r.spans,
			span{Slice: i, Name: "sim", Parent: "slice", Calls: eng.Stepped - prevStepped},
			span{Slice: i, Name: "sim.windows", Parent: "slice", Calls: dr.Windows - prevDrain.Windows},
			span{Slice: i, Name: "transport", Parent: "slice", Calls: tn.rt.Net.Sent() - prevSent},
			span{Slice: i, Name: "scenario", Parent: "slice", Calls: uint64(st.edgeEvents - prevEdgeEvents)},
		)
		prevDrain, prevStepped, prevSent, prevEdgeEvents = dr, eng.Stepped, tn.rt.Net.Sent(), st.edgeEvents

		// Estimate sweep over (a stride of) the live edges; the edge list is
		// refreshed every 16 slices because listing it sorts every edge.
		if i%16 == 0 {
			edges = tn.rt.Dyn.EdgesBothUp(edges[:0])
		}
		q, ns, misses := sweep(tn, edges)
		r.sweepQueries += q
		r.sweepNs += ns
		r.sweepMisses += misses
		r.spans = append(r.spans, span{Slice: i, Name: "estimate", Parent: "slice", Calls: uint64(q), SelfNs: ns})
	}
	r.serial, r.window = tn.tr.serial(), tn.tr.windowed()
	r.fingerprint = fingerprint(spec.n, tn.algo.Logical, tn.algo.MaxEstimate, tn.rt.HW)
	st := stats()
	r.layers = r.layerValues(spec.n, st)
	r.conflictOrErr = tn.algo.TriggerConflicts > 0 || st.err != nil
	// The replay runs with the traced network unreachable, so its garbage
	// collections see only its own heap, as the traced run's did.
	r.net = nil
	runtime.GC()

	r.replay, err = runSim(spec, seed, 1, len(r.slices), overrun(budget))
	if err != nil {
		return nil, err
	}
	r.fingerprintsMet = r.fingerprint == r.replay.fingerprint
	return r, nil
}

// layerValues returns the traced run's simulator figures per layer, counts
// and times per simulated unit.
func (r *tracedRun) layerValues(n int, st scenarioStats) map[string]float64 {
	units := r.units()
	v := map[string]float64{}
	eng := r.net.rt.Engine
	ds := eng.DrainStats()
	v["sim.events"] = float64(eng.Stepped) / units
	v["sim.windows"] = float64(ds.Windows) / units
	v["sim.events_per_window"] = ds.MeanEventsPerWindow()
	v["sim.crossed_ticks"] = float64(ds.CrossedTicks) / units
	v["sim.serial_steps"] = float64(ds.SerialSteps) / units
	v["sim.global_events"] = float64(ds.GlobalEvents) / units
	v["sim.trunc_global"] = float64(ds.TruncGlobal) / units
	v["sim.trunc_control"] = float64(ds.TruncControl) / units
	v["sim.trunc_lookahead"] = float64(ds.TruncLookahead) / units
	for k := spanKind(0); k < numSpans; k++ {
		v["core."+spanNames[k]+"_ms"] = (r.serial.ns[k] + r.window.ns[k]) / 1e6 / units
		v["core."+spanNames[k]+"_calls"] = float64(r.serial.calls[k]+r.window.calls[k]) / units
	}
	a := r.net.algo
	v["core.insertions"] = float64(a.Insertions) / units
	v["core.handshake_aborts"] = float64(a.HandshakeAborts) / units
	v["core.trigger_conflicts"] = float64(a.TriggerConflicts)
	v["runner.drain_ms"] = r.drainNs / 1e6 / units
	v["estimate.misses"] = 0
	if m := r.net.messaging; m != nil {
		v["estimate.misses"] = float64(m.Misses-r.sweepMisses) / units
	}
	v["estimate.query_ns"] = r.sweepNs / float64(r.sweepQueries)
	nw := r.net.rt.Net
	v["transport.sent"] = float64(nw.Sent()) / units
	v["transport.dropped"] = float64(nw.Dropped()) / units
	v["transport.slab_bytes_per_node"] = float64(nw.SlabBytes()) / float64(n)
	v["scenario.edge_events"] = float64(st.edgeEvents) / units
	v["scenario.moves"] = float64(st.moves) / units
	return v
}

// sweepSink keeps the estimate sweep's results observable.
var sweepSink float64

// sweep times Estimate in both directions over up to 2048 of the edges and
// returns the query count, the elapsed nanoseconds and the misses the sweep
// itself caused (which the run's miss count must exclude).
func sweep(tn *tracedNet, edges []topo.EdgeID) (queries int, ns float64, misses uint64) {
	if len(edges) == 0 {
		return 0, 0, 0
	}
	stride := (len(edges) + 2047) / 2048
	var before uint64
	if tn.messaging != nil {
		before = tn.messaging.Misses
	}
	t0 := time.Now()
	for i := 0; i < len(edges); i += stride {
		e := edges[i]
		a, _ := tn.probe.Estimate(e.U, e.V)
		b, _ := tn.probe.Estimate(e.V, e.U)
		sweepSink += a + b
		queries += 2
	}
	ns = float64(time.Since(t0).Nanoseconds())
	if tn.messaging != nil {
		misses = tn.messaging.Misses - before
	}
	return queries, ns, misses
}

// writeSpans writes the spans as JSON lines to dir/spans-<workload>-seed<seed>.jsonl.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
