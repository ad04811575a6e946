package runner

import (
	"math"
	"sort"
	"testing"

	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// fakeAlgo records every callback it receives and integrates a plain clock.
type fakeAlgo struct {
	rt       *Runtime
	l        []float64
	ups      [][2]int
	downs    [][2]int
	beacons  int
	controls int
	steps    int
}

func (f *fakeAlgo) Name() string { return "fake" }

func (f *fakeAlgo) Init(rt *Runtime) {
	f.rt = rt
	f.l = make([]float64, rt.N())
}

func (f *fakeAlgo) OnEdgeUp(self, peer int, _ sim.Time) { f.ups = append(f.ups, [2]int{self, peer}) }
func (f *fakeAlgo) OnEdgeDown(self, peer int, _ sim.Time) {
	f.downs = append(f.downs, [2]int{self, peer})
}

func (f *fakeAlgo) OnBeacon(_, _ int, _ transport.Beacon, _ transport.Delivery) { f.beacons++ }

func (f *fakeAlgo) OnControl(_, _ int, _ any, _ transport.Delivery) { f.controls++ }

func (f *fakeAlgo) Step(_ sim.Time, dH []float64) {
	f.steps++
	for u := range f.l {
		f.l[u] += dH[u]
	}
}

func (f *fakeAlgo) Logical(u int) float64     { return f.l[u] }
func (f *fakeAlgo) MaxEstimate(u int) float64 { return f.l[u] }

func newTestRuntime(t *testing.T, n int) (*Runtime, *fakeAlgo) {
	t.Helper()
	rt, err := New(Config{
		N: n, Tick: 0.1, BeaconInterval: 0.5,
		Drift: drift.TwoGroup{Rho: 0.01, Split: n / 2},
		Seed:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range topo.Line(n) {
		if err := rt.Dyn.DeclareLink(e.U, e.V, topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.1, Uncertainty: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	algo := &fakeAlgo{}
	rt.SetEstimator(estimate.NewOracle(rt.Dyn, func(u int) float64 { return algo.Logical(u) }, nil))
	rt.Attach(algo)
	for _, e := range topo.Line(n) {
		if err := rt.Dyn.AppearInstant(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	return rt, algo
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero nodes", Config{N: 0, Tick: 0.1, BeaconInterval: 1}},
		{"zero tick", Config{N: 2, Tick: 0, BeaconInterval: 1}},
		{"zero beacons", Config{N: 2, Tick: 0.1, BeaconInterval: 0}},
		{"NaN tick", Config{N: 2, Tick: math.NaN(), BeaconInterval: 1}},
		{"+Inf tick", Config{N: 2, Tick: math.Inf(1), BeaconInterval: 1}},
		{"-Inf tick", Config{N: 2, Tick: math.Inf(-1), BeaconInterval: 1}},
		{"NaN beacons", Config{N: 2, Tick: 0.1, BeaconInterval: math.NaN()}},
		{"+Inf beacons", Config{N: 2, Tick: 0.1, BeaconInterval: math.Inf(1)}},
		{"-Inf beacons", Config{N: 2, Tick: 0.1, BeaconInterval: math.Inf(-1)}},
		// A subnormal step was accepted, and RunFor asked for about 10³¹⁹
		// steps.
		{"subnormal tick", Config{N: 2, Tick: 2e-319, BeaconInterval: 1}},
		{"subnormal beacons", Config{N: 2, Tick: 0.1, BeaconInterval: 2e-319}},
		{"tick below 1e-9", Config{N: 2, Tick: 9e-10, BeaconInterval: 1}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestStartRequiresWiring(t *testing.T) {
	rt, err := New(Config{N: 2, Tick: 0.1, BeaconInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err == nil {
		t.Error("Start without Attach accepted")
	}
	algo := &fakeAlgo{}
	rt.Attach(algo)
	if err := rt.Start(); err == nil {
		t.Error("Start without estimator accepted")
	}
	rt.SetEstimator(estimate.NewOracle(rt.Dyn, func(int) float64 { return 0 }, nil))
	if err := rt.Start(); err != nil {
		t.Errorf("Start failed on wired runtime: %v", err)
	}
	if err := rt.Start(); err == nil {
		t.Error("double Start accepted")
	}
}

// TestSetEstimatorAfterStartPanics pins the estimate layer from Start on:
// state an algorithm derives from the layer's answers would outlive a swap.
func TestSetEstimatorAfterStartPanics(t *testing.T) {
	rt, _ := newTestRuntime(t, 2)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetEstimator after Start did not panic")
		}
	}()
	rt.SetEstimator(estimate.NewOracle(rt.Dyn, func(int) float64 { return 0 }, nil))
}

func TestHardwareClocksFollowDrift(t *testing.T) {
	rt, _ := newTestRuntime(t, 4)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	rt.Run(100)
	// Two-group: nodes 0,1 fast (1.01), nodes 2,3 slow (0.99).
	if rt.Hardware(0) <= rt.Hardware(3) {
		t.Errorf("fast node hardware %v not ahead of slow %v", rt.Hardware(0), rt.Hardware(3))
	}
	wantFast, wantSlow := 100*1.01, 100*0.99
	if diff := rt.Hardware(0) - wantFast; diff > 0.2 || diff < -0.2 {
		t.Errorf("fast hardware = %v, want ≈ %v", rt.Hardware(0), wantFast)
	}
	if diff := rt.Hardware(3) - wantSlow; diff > 0.2 || diff < -0.2 {
		t.Errorf("slow hardware = %v, want ≈ %v", rt.Hardware(3), wantSlow)
	}
}

func TestStepsAndBeaconsFlow(t *testing.T) {
	rt, algo := newTestRuntime(t, 4)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	rt.Run(10)
	if algo.steps < 95 {
		t.Errorf("steps = %d, want ≈ 100 (tick 0.1 over 10 units)", algo.steps)
	}
	// Each node broadcasts every 0.5 to up to 2 neighbors: ≈ 10/0.5·6 = 120
	// deliveries over the 3-edge line (6 directed edges).
	if algo.beacons < 80 {
		t.Errorf("beacons = %d, want ≈ 120", algo.beacons)
	}
}

func TestEdgeEventsForwarded(t *testing.T) {
	rt, algo := newTestRuntime(t, 4)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if len(algo.ups) != 6 { // 3 undirected edges × 2 endpoints
		t.Fatalf("ups = %d, want 6", len(algo.ups))
	}
	if err := rt.Dyn.Disappear(1, 2); err != nil {
		t.Fatal(err)
	}
	rt.Run(1)
	if len(algo.downs) != 2 {
		t.Fatalf("downs = %d, want 2", len(algo.downs))
	}
}

func TestControlMessagesForwarded(t *testing.T) {
	rt, algo := newTestRuntime(t, 2)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	rt.Net.SendControl(0, 1, "hello")
	rt.Run(1)
	if algo.controls != 1 {
		t.Fatalf("controls = %d, want 1", algo.controls)
	}
}

func TestMessagingLayerReceivesInvalidations(t *testing.T) {
	rt, err := New(Config{N: 2, Tick: 0.1, BeaconInterval: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Dyn.DeclareLink(0, 1, topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.1, Uncertainty: 0.05}); err != nil {
		t.Fatal(err)
	}
	layer := estimate.NewMessaging(2, rt.Dyn, rt.Hardware, estimate.MessagingConfig{
		Rho: 0.01, Mu: 0.1, BeaconInterval: 0.5, TickSlop: 0.2,
	})
	rt.SetEstimator(layer)
	algo := &fakeAlgo{}
	rt.Attach(algo)
	if err := rt.Dyn.AppearInstant(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	rt.Run(3)
	if _, ok := layer.Estimate(0, 1); !ok {
		t.Fatal("no estimate after beaconing")
	}
	if err := rt.Dyn.Disappear(0, 1); err != nil {
		t.Fatal(err)
	}
	rt.Run(4)
	if _, ok := layer.Estimate(0, 1); ok {
		t.Fatal("estimate survived edge loss (invalidation not forwarded)")
	}
}

// sendTap is a delay policy that records the engine time of every send per
// sender, which at EventParallelism 1 is the beacon wheel's slot time, and
// draws the delay as RandomDelay does.
type sendTap struct {
	eng   *sim.Engine
	sends map[int][]float64
}

func (s *sendTap) Draw(st *sim.Stream, from, to int, p topo.LinkParams) float64 {
	s.sends[from] = append(s.sends[from], s.eng.Now())
	return transport.RandomDelay{}.Draw(st, from, to, p)
}

// TestBeaconWheelKeepsPerNodeCadence pins the beacon wheel contract: every
// node still beacons with period BeaconInterval at its staggered offset
// interval·u/N, exactly as the old N per-node tickers did.
func TestBeaconWheelKeepsPerNodeCadence(t *testing.T) {
	const (
		n        = 4
		interval = 0.5
	)
	tap := &sendTap{sends: make(map[int][]float64)}
	rt, err := New(Config{
		N: n, Tick: 0.1, BeaconInterval: interval,
		Drift: drift.Perfect(),
		Delay: tap,
		Seed:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tap.eng = rt.Engine
	for _, e := range topo.Line(n) {
		if err := rt.Dyn.DeclareLink(e.U, e.V, topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.1, Uncertainty: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	algo := &fakeAlgo{}
	rt.SetEstimator(estimate.NewOracle(rt.Dyn, func(u int) float64 { return algo.Logical(u) }, nil))
	rt.Attach(algo)
	for _, e := range topo.Line(n) {
		if err := rt.Dyn.AppearInstant(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	rt.Run(10)
	for u := 0; u < n; u++ {
		sends := tap.sends[u]
		if len(sends) < 18 {
			t.Fatalf("node %d sent %d beacons over 10 units, want ≈ 20", u, len(sends))
		}
		offset := interval * float64(u) / n
		seen := map[float64]bool{}
		for _, at := range sends {
			seen[at] = true
		}
		// Deduplicate (one send per neighbor) and check the exact schedule.
		times := make([]float64, 0, len(seen))
		for at := range seen {
			times = append(times, at)
		}
		sort.Float64s(times)
		for k, at := range times {
			want := offset + float64(k)*interval
			if math.Abs(at-want) > 1e-9 {
				t.Fatalf("node %d beacon %d sent at %v, want %v (offset %v, period %v)",
					u, k, at, want, offset, interval)
			}
		}
	}
}

// envAlgo is fakeAlgo that records, on every tick, the tick time and the
// rate envelope Step sees.
type envAlgo struct {
	fakeAlgo
	t             sim.Time
	lo, hi, until float64
}

func (e *envAlgo) Step(t sim.Time, dH []float64) {
	e.t = t
	e.lo, e.hi, e.until = e.rt.RateEnvelope()
	e.fakeAlgo.Step(t, dH)
}

// perNode assigns each node an individually fixed rate, missing entries
// running at rate 1; the rates never change.
type perNode struct {
	Rates map[int]float64
}

func (p perNode) Rate(u int, _ sim.Time) float64 {
	if r, ok := p.Rates[u]; ok {
		return r
	}
	return 1
}

func (perNode) RatesConstantUntil(sim.Time) sim.Time { return math.Inf(1) }

// TestRateEnvelope pins what RateEnvelope reports to a barrier tick's Step:
// the extremes of the clamped rates the tick integrated, and the end of the
// schedule's constant-rate stretch from the tick's time (the tick time
// itself when the schedule certifies none). It runs every schedule on a
// serial tick and on more tick shards than nodes, where the empty shards
// must not leak stale extremes.
func TestRateEnvelope(t *testing.T) {
	PoolEveryTick(t)
	inf := math.Inf(1)
	for _, c := range []struct {
		name  string
		sched func() drift.Schedule
		until func(t float64) float64
	}{
		{"two-group", func() drift.Schedule { return drift.TwoGroup{Rho: 0.1, Split: 2} }, func(float64) float64 { return inf }},
		{"flip", func() drift.Schedule { return drift.Flip{Rho: 0.2, Period: 0.35} }, func(t float64) float64 {
			return (math.Floor(t/0.35) + 1) * 0.35
		}},
		{"sinusoid", func() drift.Schedule { return drift.Sinusoid{Rho: 0.1, Period: 3, PhasePerNode: 0.1} }, func(t float64) float64 { return t }},
		{"clamped", func() drift.Schedule { return perNode{Rates: map[int]float64{0: 2.5, 1: -0.5}} }, func(float64) float64 { return inf }},
		{"random walk", func() drift.Schedule { return drift.NewRandomWalk(0.1, 0.3, 3, sim.NewRNG(1)) }, func(t float64) float64 { return t }},
	} {
		for _, par := range []int{1, 5} {
			sched := c.sched()
			rt, err := New(Config{N: 3, Tick: 0.1, BeaconInterval: 0.5, Drift: sched, TickParallelism: par, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, until := rt.RateEnvelope(); until != math.Inf(-1) {
				t.Errorf("%s: before the first tick the stretch ends at %v, want -Inf", c.name, until)
			}
			algo := &envAlgo{}
			rt.SetEstimator(estimate.NewOracle(rt.Dyn, algo.Logical, nil))
			rt.Attach(algo)
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			rt.Run(1.05)
			lo, hi := math.Inf(1), math.Inf(-1)
			for u := 0; u < rt.N(); u++ {
				r := drift.Clamp(sched.Rate(u, algo.t), rateSpan)
				lo, hi = min(lo, r), max(hi, r)
			}
			if algo.lo != lo || algo.hi != hi || lo == hi {
				t.Errorf("%s, par %d: rates in [%v, %v] at %v, want [%v, %v] and unequal", c.name, par, algo.lo, algo.hi, algo.t, lo, hi)
			}
			if want := c.until(algo.t); algo.until != want {
				t.Errorf("%s, par %d: the stretch from the tick at %v ends at %v, want %v", c.name, par, algo.t, algo.until, want)
			}
		}
	}
}

// TestTickPoolSizeRule pins New's tick executor: at TickParallelism 8 a
// network one node short of inlineTickNodes ticks on the calling goroutine
// and one of inlineTickNodes nodes fans its tick over eight shards, while
// TickParallelism 1 never builds a pool.
func TestTickPoolSizeRule(t *testing.T) {
	for _, c := range []struct{ n, par, want int }{
		{inlineTickNodes - 1, 8, 1},
		{inlineTickNodes, 8, 8},
		{inlineTickNodes, 1, 1},
	} {
		rt, err := New(Config{N: c.n, Tick: 0.1, BeaconInterval: 0.5, TickParallelism: c.par})
		if err != nil {
			t.Fatal(err)
		}
		if got := rt.TickShards(); got != c.want {
			t.Errorf("N=%d at TickParallelism %d: %d tick shards, want %d", c.n, c.par, got, c.want)
		}
		if rt.pool != nil {
			rt.pool.Close()
		}
	}
}

// TestForgottenLinkRedeclared cuts a link declared with parameters of its
// own and waits out its quarantine; the next declare forgets it, hands its
// slot to the new link and drops its parameters. CutEdge on the forgotten
// link succeeds: it declares the link again with the runtime's link
// parameters and cuts it, and the endpoints observe nothing, since it is
// down already. AddEdge then makes it appear with those parameters. A
// second link is cut and re-added with nothing in between to forget it:
// it comes back with the runtime's parameters too.
func TestForgottenLinkRedeclared(t *testing.T) {
	own := topo.DefaultLinkParams()
	shared := topo.LinkParams{Eps: 0.3, Tau: 0.05, Delay: 0.2, Uncertainty: 0.1}
	rt, err := New(Config{N: 4, Tick: 0.1, BeaconInterval: 0.5, Link: shared, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range topo.Line(4) {
		if err := rt.Dyn.DeclareLink(e.U, e.V, own); err != nil {
			t.Fatal(err)
		}
	}
	algo := &fakeAlgo{}
	rt.SetEstimator(estimate.NewOracle(rt.Dyn, algo.Logical, nil))
	rt.Attach(algo)
	for _, e := range topo.Line(4) {
		if err := rt.Dyn.AppearInstant(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rt.Run(1)
	cut, _ := rt.Dyn.Dir(1, 2)
	must(rt.CutEdge(1, 2))
	rt.Run(2)
	if p, ok := rt.Dyn.Params(1, 2); !ok || p != own {
		t.Fatalf("before a declare or transition forgets it, the cut link holds (%+v, %v), want its own parameters", p, ok)
	}
	must(rt.AddEdge(0, 3)) // the declare forgets {1,2}
	if _, ok := rt.Dyn.Params(1, 2); ok {
		t.Fatal("a link dead for longer than its quarantine is still declared")
	}
	if d, _ := rt.Dyn.Dir(0, 3); d>>1 != cut>>1 || rt.Dyn.DirCap() != 6 {
		t.Fatalf("{0,3} took directed index %d and DirCap is %d, want {1,2}'s slot %d and 6", d, rt.Dyn.DirCap(), cut>>1)
	}
	downs := len(algo.downs)
	must(rt.CutEdge(1, 2))
	rt.Run(3)
	if p, ok := rt.Dyn.Params(1, 2); !ok || p != shared || len(algo.downs) != downs {
		t.Fatalf("CutEdge on the forgotten link: parameters (%+v, %v), %d new losses; want the runtime's and none", p, ok, len(algo.downs)-downs)
	}
	must(rt.AddEdge(1, 2))
	rt.Run(4)
	if p, _ := rt.Dyn.Params(1, 2); p != shared || !rt.Dyn.BothUp(1, 2) {
		t.Fatalf("AddEdge on the forgotten link: parameters %+v, both up %v; want the runtime's, up", p, rt.Dyn.BothUp(1, 2))
	}
	// No declare or transition runs between {2,3}'s losses and AddEdge, so
	// the topology still holds the link; it counts as forgotten all the
	// same, and comes back with the runtime's parameters.
	must(rt.CutEdge(2, 3))
	rt.Run(6)
	if p, ok := rt.Dyn.Params(2, 3); !ok || p != own || rt.Dyn.Declared(2, 3) {
		t.Fatalf("{2,3} a quarantine after its losses: parameters (%+v, %v), declared %v; want its own, held, not declared", p, ok, rt.Dyn.Declared(2, 3))
	}
	must(rt.AddEdge(2, 3))
	if p, ok := rt.Dyn.Params(2, 3); !ok || p != shared {
		t.Fatalf("AddEdge on {2,3}: parameters (%+v, %v), want the runtime's", p, ok)
	}
}
