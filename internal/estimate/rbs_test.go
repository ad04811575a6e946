package estimate

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

const (
	rRho  = 0.01
	rMu   = 0.1
	rTick = 0.005
)

// invalidateRBS drops u's sample about v, as an edge loss would.
func invalidateRBS(r *RBS, u, v int) {
	if slot, ok := r.rows.Find(u, int32(v)); ok {
		r.rbValid[slot] = 0
	}
}

// coListeners reports whether u and v share a reference source.
func coListeners(r *RBS, u, v int) bool {
	_, ok := r.rows.Find(u, int32(v))
	return ok
}

// rbsHarness drives 3 nodes with drifting hardware and logical clocks and
// two overlapping broadcast groups {0,1} and {1,2}.
type rbsHarness struct {
	eng   *sim.Engine
	dyn   *topo.Dynamic
	layer *RBS
	hw    []float64
	lg    []float64
	drift []float64
	rates []float64
}

func newRBSHarness(t *testing.T, cfg RBSConfig) *rbsHarness {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(5)
	dyn := topo.NewDynamic(3, eng, rng.Split())
	lp := topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.1, Uncertainty: 0.05}
	install(t, dyn, topo.Line(3), lp)
	h := &rbsHarness{
		eng:   eng,
		dyn:   dyn,
		hw:    make([]float64, 3),
		lg:    make([]float64, 3),
		drift: []float64{1 + rRho, 1, 1 - rRho},
		rates: []float64{1, 1 + rMu, 1},
	}
	layer, err := NewRBS(3, eng, dyn, rng.Split(),
		func(u int) float64 { return h.hw[u] },
		func(u int) float64 { return h.lg[u] },
		[][]int{{0, 1}, {1, 2}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.layer = layer
	eng.NewTicker(0, rTick, func(_ sim.Time, dt float64) {
		for u := 0; u < 3; u++ {
			h.hw[u] += h.drift[u] * dt
			h.lg[u] += h.rates[u] * h.drift[u] * dt
		}
	})
	layer.Start()
	return h
}

func rbsCfg() RBSConfig {
	return RBSConfig{
		Rho: rRho, Mu: rMu,
		Jitter: 0.01, Interval: 0.5, ExchangeDelay: 0.1,
		TickSlop: 2 * rTick,
	}
}

func TestRBSConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	bad := rbsCfg()
	bad.Interval = 0
	if _, err := NewRBS(3, eng, nil, nil, nil, nil, nil, bad); err == nil {
		t.Error("zero interval accepted")
	}
	bad = rbsCfg()
	bad.Jitter = -1
	if _, err := NewRBS(3, eng, nil, nil, nil, nil, nil, bad); err == nil {
		t.Error("negative jitter accepted")
	}
	if _, err := NewRBS(2, eng, nil, nil, nil, nil, [][]int{{0, 5}}, rbsCfg()); err == nil {
		t.Error("out-of-range listener accepted")
	}
}

func TestRBSCoListenerStructure(t *testing.T) {
	h := newRBSHarness(t, rbsCfg())
	if !coListeners(h.layer, 0, 1) || !coListeners(h.layer, 1, 2) {
		t.Error("group members not co-listeners")
	}
	if coListeners(h.layer, 0, 2) {
		t.Error("nodes 0 and 2 share no source but are co-listeners")
	}
	h.eng.RunUntil(5)
	if _, ok := h.layer.Estimate(0, 2); ok {
		t.Error("estimate available without a shared reference source")
	}
}

func TestRBSEstimateCertified(t *testing.T) {
	h := newRBSHarness(t, rbsCfg())
	checked := 0
	h.eng.NewTicker(2, 0.1, func(now sim.Time, _ float64) {
		for _, pair := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
			u, v := pair[0], pair[1]
			est, ok := h.layer.Estimate(u, v)
			if !ok {
				continue
			}
			checked++
			trueL := h.lg[v]
			if est > trueL+1e-9 {
				t.Fatalf("t=%v (%d,%d): estimate %v above true clock %v", now, u, v, est, trueL)
			}
			if trueL-est > h.layer.Eps(0)+1e-9 { // RBS's ε ignores the index
				t.Fatalf("t=%v (%d,%d): error %v exceeds certified ε %v",
					now, u, v, trueL-est, h.layer.Eps(0))
			}
		}
	})
	h.eng.RunUntil(30)
	if checked < 200 {
		t.Fatalf("only %d certified estimates checked", checked)
	}
	if h.layer.Broadcasts < 100 {
		t.Fatalf("broadcast schedule did not run (%d events)", h.layer.Broadcasts)
	}
}

func TestRBSBeatsMessagingOnNoisyLinks(t *testing.T) {
	// The headline property of [6]: with large message-delay uncertainty,
	// the RBS error budget (jitter-based) is far below the messaging one.
	h := newRBSHarness(t, rbsCfg())
	noisy := topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.5, Uncertainty: 0.45}
	eng2 := sim.NewEngine()
	dyn2 := topo.NewDynamic(2, eng2, sim.NewRNG(1))
	install(t, dyn2, topo.Line(2), noisy)
	msg := NewMessaging(2, dyn2, func(int) float64 { return 0 }, MessagingConfig{
		Rho: rRho, Mu: rMu, BeaconInterval: 0.5, TickSlop: 2 * rTick,
	})
	dir, _ := dyn2.Dir(0, 1)
	rbsEps := h.layer.Eps(dir)
	msgEps := msg.Eps(dir)
	if rbsEps >= msgEps/2 {
		t.Errorf("RBS ε = %v not clearly below messaging ε = %v on noisy links", rbsEps, msgEps)
	}
}

func TestRBSInvalidateAndStaleness(t *testing.T) {
	h := newRBSHarness(t, rbsCfg())
	h.eng.RunUntil(3)
	if _, ok := h.layer.Estimate(0, 1); !ok {
		t.Fatal("no estimate after several broadcast rounds")
	}
	invalidateRBS(h.layer, 0, 1)
	if _, ok := h.layer.Estimate(0, 1); ok {
		t.Fatal("estimate survived invalidation")
	}
	// It recovers on the next exchange.
	h.eng.RunUntil(4)
	if _, ok := h.layer.Estimate(0, 1); !ok {
		t.Fatal("estimate did not recover after invalidation")
	}
}

func TestRBSEpsIndependentOfDelayUncertainty(t *testing.T) {
	// ε must not contain a message-delay term: doubling the exchange delay
	// only moves the staleness part, and jitter dominates the anchored part.
	a := rbsCfg()
	b := rbsCfg()
	b.Jitter = 2 * a.Jitter
	eng := sim.NewEngine()
	la, err := NewRBS(2, eng, nil, nil, func(int) float64 { return 0 }, func(int) float64 { return 0 },
		[][]int{{0, 1}}, a)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewRBS(2, eng, nil, nil, func(int) float64 { return 0 }, func(int) float64 { return 0 },
		[][]int{{0, 1}}, b)
	if err != nil {
		t.Fatal(err)
	}
	// RBS's ε ignores the index (these layers have no topology).
	if !(lb.Eps(0) > la.Eps(0)) {
		t.Errorf("ε not increasing in jitter: %v vs %v", la.Eps(0), lb.Eps(0))
	}
	if math.Abs(lb.Eps(0)-la.Eps(0)) < 1e-12 {
		t.Error("jitter change had no effect on ε")
	}
}
