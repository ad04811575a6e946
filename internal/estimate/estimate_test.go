package estimate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

func linkParams() topo.LinkParams {
	return topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.1, Uncertainty: 0.05}
}

// install declares every edge with p and makes it visible instantly.
func install(t *testing.T, d *topo.Dynamic, edges []topo.EdgeID, p topo.LinkParams) {
	t.Helper()
	for _, e := range edges {
		if err := d.DeclareLink(e.U, e.V, p); err != nil {
			t.Fatal(err)
		}
		if err := d.AppearInstant(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
}

func twoNodeGraph(t *testing.T) (*sim.Engine, *topo.Dynamic) {
	t.Helper()
	eng := sim.NewEngine()
	d := topo.NewDynamic(2, eng, sim.NewRNG(1))
	install(t, d, topo.Line(2), linkParams())
	return eng, d
}

func TestOraclePolicies(t *testing.T) {
	_, dyn := twoNodeGraph(t)
	clocks := []float64{10, 12}
	clock := func(u int) float64 { return clocks[u] }
	eps := linkParams().Eps

	tests := []struct {
		name   string
		policy ErrorPolicy
		want   float64
	}{
		{"zero", ZeroError{}, 12},
		{"holdback", HoldBack{}, 12 - eps},
		{"pushforward", PushForward{}, 12 + eps},
		{"anticonvergence (ahead looks closer)", AntiConvergence{}, 12 - eps},
		{"amplify (ahead looks farther)", Amplify{}, 12 + eps},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			o := NewOracle(dyn, clock, tc.policy)
			got, ok := o.Estimate(0, 1)
			if !ok {
				t.Fatal("estimate unavailable on live edge")
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("estimate = %v, want %v", got, tc.want)
			}
			if dir, _ := dyn.Dir(0, 1); o.Eps(dir) != eps {
				t.Errorf("Eps = %v, want %v", o.Eps(dir), eps)
			}
		})
	}
}

func TestOracleAntiConvergenceBehindNode(t *testing.T) {
	_, dyn := twoNodeGraph(t)
	clocks := []float64{10, 8}
	o := NewOracle(dyn, func(u int) float64 { return clocks[u] }, AntiConvergence{})
	got, _ := o.Estimate(0, 1)
	if want := 8 + linkParams().Eps; math.Abs(got-want) > 1e-12 {
		t.Errorf("behind neighbor estimate = %v, want %v (pushed up)", got, want)
	}
}

func TestOraclePerNodeRandomErrorWithinBoundAndDeterministic(t *testing.T) {
	_, dyn := twoNodeGraph(t)
	clocks := []float64{0, 5}
	eps := linkParams().Eps
	draw := func() []float64 {
		o := NewOracle(dyn, func(u int) float64 { return clocks[u] }, NewPerNodeRandomError(2, sim.NewRNG(2)))
		out := make([]float64, 0, 200)
		for i := 0; i < 200; i++ {
			got, ok := o.Estimate(0, 1)
			if !ok {
				t.Fatal("estimate unavailable")
			}
			if math.Abs(got-5) > eps+1e-12 {
				t.Fatalf("estimate error %v exceeds ε=%v", got-5, eps)
			}
			out = append(out, got)
		}
		return out
	}
	a, b := draw(), draw()
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identically seeded policies: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] != a[i-1] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("per-node random policy returned a constant sequence")
	}
}

// TestOracleSkipQueries pins the skipped error draws: on per-node random
// errors, k queries by node 0 skipped through SkipQueries leave its stream
// where k answered queries leave it, and node 1's stream untouched; on the
// stateless policies a skip changes no answer.
func TestOracleSkipQueries(t *testing.T) {
	_, dyn := twoNodeGraph(t)
	clocks := []float64{0, 5}
	clock := func(u int) float64 { return clocks[u] }
	for _, k := range []uint32{0, 1, 3, 1000} {
		asked := NewOracle(dyn, clock, NewPerNodeRandomError(2, sim.NewRNG(2)))
		skipped := NewOracle(dyn, clock, NewPerNodeRandomError(2, sim.NewRNG(2)))
		for i := uint32(0); i < k; i++ {
			asked.Estimate(0, 1)
		}
		skipped.SkipQueries(0, k)
		for i := 0; i < 5; i++ {
			for u := 0; u < 2; u++ {
				a, _ := asked.Estimate(u, 1-u)
				b, _ := skipped.Estimate(u, 1-u)
				if a != b {
					t.Fatalf("k=%d: node %d's estimate %d after the skip differs: %v asked, %v skipped", k, u, i, a, b)
				}
			}
		}
	}
	for _, p := range []ErrorPolicy{nil, ZeroError{}, HoldBack{}, PushForward{}, AntiConvergence{}, Amplify{}} {
		o := NewOracle(dyn, clock, p)
		before, _ := o.Estimate(0, 1)
		o.SkipQueries(0, 7)
		if after, _ := o.Estimate(0, 1); after != before {
			t.Fatalf("stateless policy %T answered %v after a skip, %v before", p, after, before)
		}
	}
}

func TestOracleUnavailableOnDeadEdge(t *testing.T) {
	eng, dyn := twoNodeGraph(t)
	o := NewOracle(dyn, func(int) float64 { return 0 }, nil)
	if err := dyn.Disappear(0, 1); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1)
	if _, ok := o.Estimate(0, 1); ok {
		t.Fatal("estimate available on dead edge")
	}
}

// messagingHarness runs a 2-node system with drifting hardware clocks and
// logical clocks driven at chosen rates, delivering beacons through the real
// transport, so the certified bound can be validated end to end.
type messagingHarness struct {
	eng   *sim.Engine
	dyn   *topo.Dynamic
	net   *transport.Network
	layer *Messaging
	hw    []float64
	lg    []float64
	rates []float64 // logical rate multiplier per node (within [1, 1+µ])
	drift []float64 // hardware rate per node (within [1−ρ, 1+ρ])
}

const (
	hRho  = 0.01
	hMu   = 0.1
	hTick = 0.005
	hBInt = 0.25
)

func newMessagingHarness(t *testing.T, seed int64) *messagingHarness {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	dyn := topo.NewDynamic(2, eng, rng.Split())
	install(t, dyn, topo.Line(2), linkParams())
	h := &messagingHarness{
		eng:   eng,
		dyn:   dyn,
		hw:    make([]float64, 2),
		lg:    make([]float64, 2),
		rates: []float64{1, 1 + hMu},
		drift: []float64{1 + hRho, 1 - hRho},
	}
	h.net = transport.NewNetwork(eng, dyn, rng.Split(), transport.RandomDelay{})
	h.layer = NewMessaging(2, dyn, func(u int) float64 { return h.hw[u] }, MessagingConfig{
		Rho:            hRho,
		Mu:             hMu,
		BeaconInterval: hBInt,
		TickSlop:       2 * hTick,
	})
	h.net.SetHandler(h)
	eng.NewTicker(0, hTick, func(_ sim.Time, dt float64) {
		for u := 0; u < 2; u++ {
			h.hw[u] += h.drift[u] * dt
			h.lg[u] += h.rates[u] * h.drift[u] * dt
		}
	})
	for u := 0; u < 2; u++ {
		u := u
		eng.NewTicker(float64(u)*hBInt/2, hBInt, func(now sim.Time, _ float64) {
			h.net.BroadcastBeaconAt(u, transport.Beacon{L: h.lg[u]}, now)
		})
	}
	return h
}

func (h *messagingHarness) OnBeacon(to, from int, b transport.Beacon, d transport.Delivery) {
	h.layer.RecordBeacon(to, from, b, d)
}

func (h *messagingHarness) OnControl(int, int, any, transport.Delivery) {}

func TestMessagingEstimateIsCertifiedLowerBound(t *testing.T) {
	h := newMessagingHarness(t, 3)
	checked := 0
	h.eng.NewTicker(1, 0.1, func(now sim.Time, _ float64) {
		for u := 0; u < 2; u++ {
			v := 1 - u
			est, ok := h.layer.Estimate(u, v)
			if !ok {
				return
			}
			checked++
			trueL := h.lg[v]
			if est > trueL+1e-9 {
				t.Errorf("t=%v: estimate %v exceeds true clock %v (must be a lower bound)", now, est, trueL)
			}
			dir, _ := h.dyn.Dir(u, v)
			if trueL-est > h.layer.Eps(dir)+1e-9 {
				t.Errorf("t=%v: error %v exceeds certified ε=%v", now, trueL-est, h.layer.Eps(dir))
			}
		}
	})
	h.eng.RunUntil(20)
	if checked < 100 {
		t.Fatalf("only %d estimate checks ran; harness misconfigured", checked)
	}
}

func TestMessagingCenteredHalvesEps(t *testing.T) {
	h := newMessagingHarness(t, 4)
	dir, _ := h.dyn.Dir(0, 1)
	plain := h.layer.Eps(dir)
	h.layer.cfg.Centered = true
	if got := h.layer.Eps(dir); math.Abs(got-plain/2) > 1e-12 {
		t.Errorf("centered Eps = %v, want %v", got, plain/2)
	}
}

func TestMessagingNoSampleMeansNotOK(t *testing.T) {
	h := newMessagingHarness(t, 5)
	if _, ok := h.layer.Estimate(0, 1); ok {
		t.Fatal("estimate available before any beacon")
	}
	if h.layer.Misses == 0 {
		t.Error("miss not counted")
	}
}

func TestMessagingInvalidateDropsSample(t *testing.T) {
	h := newMessagingHarness(t, 6)
	h.eng.RunUntil(2)
	if _, ok := h.layer.Estimate(0, 1); !ok {
		t.Fatal("no estimate after 2 time units of beaconing")
	}
	h.layer.Invalidate(0, 1)
	if _, ok := h.layer.Estimate(0, 1); ok {
		t.Fatal("estimate survived invalidation")
	}
}

// TestMessagingAgeBoundAcrossOutage re-declares a link with a larger
// Uncertainty while it is down. A sample's age bound is fixed when its
// beacon arrives, so this is the case where a stored bound could go stale:
// the query between the reappearance and the first new beacon must miss
// rather than serve the invalidated pre-outage sample, and the new sample
// must be served for the new, longer window.
func TestMessagingAgeBoundAcrossOutage(t *testing.T) {
	eng := sim.NewEngine()
	dyn := topo.NewDynamic(2, eng, sim.NewRNG(1))
	hw := 0.0
	cfg := MessagingConfig{Rho: 0.002, Mu: 0.1, BeaconInterval: 0.25, TickSlop: 0.04}
	m := NewMessaging(2, dyn, func(int) float64 { return hw }, cfg)
	narrow, wide := linkParams(), linkParams()
	wide.Uncertainty = 2 * narrow.Uncertainty
	lo, hi := maxSampleAgeHW(cfg, narrow), maxSampleAgeHW(cfg, wide)

	if err := dyn.DeclareLink(0, 1, narrow); err != nil {
		t.Fatal(err)
	}
	if err := dyn.AppearInstant(0, 1); err != nil {
		t.Fatal(err)
	}
	dir, _ := dyn.Dir(0, 1)
	m.RecordBeacon(0, 1, transport.Beacon{L: 1}, transport.Delivery{Dir: dir, MinTransit: narrow.Delay - narrow.Uncertainty})
	if _, ok := m.Estimate(0, 1); !ok {
		t.Fatal("fresh sample not served")
	}

	// The outage: both ends observe the loss (within τ), and the receiver's
	// sample is invalidated, as the runner's EdgeDown listener does. Only
	// then does topo accept new parameters for the link.
	if err := dyn.Disappear(0, 1); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1)
	m.Invalidate(0, 1)
	if err := dyn.DeclareLink(0, 1, wide); err != nil {
		t.Fatal(err)
	}
	if err := dyn.AppearInstant(0, 1); err != nil {
		t.Fatal(err)
	}
	hw = lo / 2 // an age inside either window
	if e, ok := m.Estimate(0, 1); ok {
		t.Fatalf("query before the new beacon served %v from the pre-outage sample", e)
	}

	hw = 10
	minTransit := wide.Delay - wide.Uncertainty
	m.RecordBeacon(0, 1, transport.Beacon{L: 12}, transport.Delivery{Dir: dir, MinTransit: minTransit})
	age := (lo + hi) / 2
	hw = 10 + age
	e, ok := m.Estimate(0, 1)
	if !ok {
		t.Fatalf("query at age %v, between the old bound %v and the new bound %v, missed", age, lo, hi)
	}
	if want := advanceSample(cfg, 12, minTransit, hw-10); math.Float64bits(e) != math.Float64bits(want) {
		t.Errorf("estimate %v, want %v", e, want)
	}
	hw = 10 + 1.01*hi
	if _, ok := m.Estimate(0, 1); ok {
		t.Errorf("query past the new bound %v served", hi)
	}
}

// TestMessagingAgeBoundInclusive pins EstimateAt's age test at both exact
// boundaries: a query at age 0, as at receipt, and at age exactly maxAge is
// served, and one ulp past maxAge misses and counts the miss.
func TestMessagingAgeBoundInclusive(t *testing.T) {
	eng := sim.NewEngine()
	dyn := topo.NewDynamic(2, eng, sim.NewRNG(1))
	hw := 0.0
	cfg := MessagingConfig{Rho: 0.002, Mu: 0.1, BeaconInterval: 0.25, TickSlop: 0.04}
	m := NewMessaging(2, dyn, func(int) float64 { return hw }, cfg)
	p := linkParams()
	if err := dyn.DeclareLink(0, 1, p); err != nil {
		t.Fatal(err)
	}
	if err := dyn.AppearInstant(0, 1); err != nil {
		t.Fatal(err)
	}
	dir, _ := dyn.Dir(0, 1)
	m.RecordBeacon(0, 1, transport.Beacon{L: 1}, transport.Delivery{Dir: dir, MinTransit: p.Delay - p.Uncertainty})
	maxAge := maxSampleAgeHW(cfg, p)
	for _, age := range []float64{0, maxAge} {
		hw = age // the sample arrived at hardware time 0, so the age is exact
		if _, ok := m.Estimate(0, 1); !ok {
			t.Errorf("query at age %v of a window of %v missed", age, maxAge)
		}
	}
	hw = math.Nextafter(maxAge, math.Inf(1))
	if _, ok := m.Estimate(0, 1); ok {
		t.Errorf("query one ulp past the window of %v served", maxAge)
	}
	if m.Misses != 1 {
		t.Errorf("Misses = %d, want 1", m.Misses)
	}
}

// TestEstimateUntilServesThroughUntil checks EstimateUntil's expiry against
// the age test it must predict, for samples received at hardware times of
// many magnitudes, where hwAtRecv + maxAge rounds both ways: a query at
// hardware time until is served with EstimateAt's value, and until lies
// below the true end of the window by no more than its relative margin of
// 1e-9, which stays far inside the window up to hardware times of 2²⁰.
func TestEstimateUntilServesThroughUntil(t *testing.T) {
	eng := sim.NewEngine()
	dyn := topo.NewDynamic(2, eng, sim.NewRNG(1))
	hw := 0.0
	cfg := MessagingConfig{Rho: 0.002, Mu: 0.1, BeaconInterval: 0.25, TickSlop: 0.04, Centered: true}
	m := NewMessaging(2, dyn, func(int) float64 { return hw }, cfg)
	p := linkParams()
	if err := dyn.DeclareLink(0, 1, p); err != nil {
		t.Fatal(err)
	}
	if err := dyn.AppearInstant(0, 1); err != nil {
		t.Fatal(err)
	}
	dir, _ := dyn.Dir(0, 1)
	maxAge := maxSampleAgeHW(cfg, p)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		recv := math.Ldexp(1+rng.Float64(), rng.Intn(30)-10) // up to 2²⁰

		hw = recv
		m.RecordBeacon(0, 1, transport.Beacon{L: recv}, transport.Delivery{Dir: dir, MinTransit: p.Delay - p.Uncertainty})
		if _, until, ok := m.EstimateUntil(0, dir); !ok || until < recv {
			t.Fatalf("at receipt (hw %v): ok=%v until=%v", recv, ok, until)
		}
		hw = recv + maxAge/2
		_, until, _ := m.EstimateUntil(0, dir)
		if end := recv + maxAge; !(until < end && until > end-1e-6*(1+end)) {
			t.Fatalf("hw %v: until %v, want just below the window's end %v", recv, until, end)
		}
		hw = until
		est, _, ok := m.EstimateUntil(0, dir)
		want, wantOK := m.EstimateAt(0, 1, dir)
		if !ok || !wantOK || est != want {
			t.Fatalf("sample received at %v: query at until=%v served (%v, %v), EstimateAt (%v, %v)", recv, until, est, ok, want, wantOK)
		}
	}
	if m.Misses != 0 {
		t.Errorf("%d misses", m.Misses)
	}
}

func TestMessagingStaleSampleRejected(t *testing.T) {
	h := newMessagingHarness(t, 7)
	h.eng.RunUntil(2)
	// Stop beacons by cutting the edge; the sample ages out.
	if err := h.dyn.Disappear(0, 1); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(2.2)
	// Re-appear instantly: edge is up but the old sample must not be trusted
	// beyond the certified age window.
	if err := h.dyn.AppearInstant(0, 1); err != nil {
		t.Fatal(err)
	}
	h.eng.RunUntil(4)
	est, ok := h.layer.Estimate(0, 1)
	if ok {
		// A fresh beacon may have arrived after reappearance, which is fine;
		// but then the error must still be certified.
		if dir, _ := h.dyn.Dir(0, 1); h.lg[1]-est > h.layer.Eps(dir)+1e-9 {
			t.Fatalf("stale sample used: error %v > ε %v", h.lg[1]-est, h.layer.Eps(dir))
		}
	}
}

func TestOracleErrorClampedProperty(t *testing.T) {
	_, dyn := twoNodeGraph(t)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		clocks := []float64{a, b}
		// A policy that violates the bound on purpose: the oracle must clamp.
		bad := badPolicy{}
		o := NewOracle(dyn, func(u int) float64 { return clocks[u] }, bad)
		got, ok := o.Estimate(0, 1)
		if !ok {
			return false
		}
		return math.Abs(got-b) <= linkParams().Eps+1e-12
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

type badPolicy struct{}

func (badPolicy) Err(_, _ int, _, _, eps float64) float64 { return 10 * eps }

func (badPolicy) SkipErrs(int, uint32) {}
