package baselines

import (
	"math"
	"testing"

	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/topo"
	"repro/internal/transport"
)

const (
	bRho = 0.01
	bMu  = 0.1
)

func link() topo.LinkParams {
	return topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.1, Uncertainty: 0.05}
}

func host(t *testing.T, n int, algo runner.Algorithm) *runner.Runtime {
	t.Helper()
	rt, err := runner.New(runner.Config{
		N: n, Tick: 0.02, BeaconInterval: 0.25,
		Drift: drift.TwoGroup{Rho: bRho, Split: n / 2},
		Delay: transport.RandomDelay{},
		Seed:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range topo.Line(n) {
		if err := rt.Dyn.DeclareLink(e.U, e.V, link()); err != nil {
			t.Fatal(err)
		}
	}
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
	return rt
}

func globalSkew(a runner.Algorithm, n int) float64 {
	lo, hi := a.Logical(0), a.Logical(0)
	for u := 1; u < n; u++ {
		l := a.Logical(u)
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	return hi - lo
}

func TestMaxSyncBoundsGlobalSkew(t *testing.T) {
	const n = 8
	m := NewMaxSync(bRho)
	rt := host(t, n, m)
	rt.Run(300)
	// Max propagation keeps everyone within the flood lag of the leader.
	if g := globalSkew(m, n); g > 1.0 {
		t.Errorf("global skew = %v, want < 1 under max propagation", g)
	}
	if m.Jumps == 0 {
		t.Error("max-sync never jumped; flooding is not working")
	}
}

func TestMaxSyncJumpsForwardOnly(t *testing.T) {
	const n = 4
	m := NewMaxSync(bRho)
	rt := host(t, n, m)
	prev := make([]float64, n)
	rt.Engine.NewTicker(1, 1, func(_ float64, _ float64) {
		for u := 0; u < n; u++ {
			if m.Logical(u) < prev[u] {
				t.Fatalf("node %d clock moved backwards", u)
			}
			prev[u] = m.Logical(u)
		}
	})
	rt.Run(100)
}

func TestMaxSyncCorruptedStartConverges(t *testing.T) {
	const n = 6
	m := NewMaxSync(bRho)
	rt := host(t, n, m)
	m.SetLogical(0, 10) // one node far ahead; the rest must catch up fast
	rt.Run(20)
	if g := globalSkew(m, n); g > 1.0 {
		t.Errorf("global skew = %v after 20 units, want < 1 (jump propagation)", g)
	}
}

func TestBlockSyncValidation(t *testing.T) {
	if _, err := NewBlockSync(0, bRho, bMu); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := NewBlockSync(2, 0, bMu); err == nil {
		t.Error("zero rho accepted")
	}
	for _, bad := range [][3]float64{
		{math.NaN(), bRho, bMu}, {math.Inf(1), bRho, bMu},
		{2, math.NaN(), bMu}, {2, bRho, math.NaN()},
	} {
		if _, err := NewBlockSync(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("NewBlockSync(%v, %v, %v) accepted", bad[0], bad[1], bad[2])
		}
	}
	if _, err := NewBlockSync(2, bRho, bMu); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestBlockSyncContainsSkew(t *testing.T) {
	const n = 8
	b, err := NewBlockSync(2, bRho, bMu)
	if err != nil {
		t.Fatal(err)
	}
	rt := host(t, n, b)
	rt.Run(400)
	if g := globalSkew(b, n); g > 3 {
		t.Errorf("global skew = %v, want < 3", g)
	}
	worstAdj := 0.0
	for u := 0; u+1 < n; u++ {
		s := b.Logical(u) - b.Logical(u+1)
		if s < 0 {
			s = -s
		}
		if s > worstAdj {
			worstAdj = s
		}
	}
	// Steady-state local skew should stay around the block threshold.
	if worstAdj > 2*b.s {
		t.Errorf("adjacent skew %v far above block size %v", worstAdj, b.s)
	}
}

func TestBlockSyncDrainsInjectedSkew(t *testing.T) {
	const n = 6
	b, err := NewBlockSync(1, bRho, bMu)
	if err != nil {
		t.Fatal(err)
	}
	rt := host(t, n, b)
	for u := 0; u < n; u++ {
		b.SetLogical(u, float64(u)*2)
	}
	g0 := globalSkew(b, n)
	rt.Run(80)
	g1 := globalSkew(b, n)
	if g1 > g0/2 {
		t.Errorf("skew %v → %v; block sync failed to drain", g0, g1)
	}
	if b.FastTicks == 0 || b.SlowTicks == 0 {
		t.Error("expected both modes to be used during drain")
	}
}

func TestBlockSyncRateEnvelope(t *testing.T) {
	const n = 4
	b, err := NewBlockSync(2, bRho, bMu)
	if err != nil {
		t.Fatal(err)
	}
	rt := host(t, n, b)
	prev := make([]float64, n)
	prevT := 0.0
	rt.Engine.NewTicker(1, 1, func(now float64, _ float64) {
		dt := now - prevT
		slop := 0.02 * (1 + bRho) * (1 + bMu)
		for u := 0; u < n; u++ {
			dl := b.Logical(u) - prev[u]
			if dl < (1-bRho)*dt-slop || dl > (1+bRho)*(1+bMu)*dt+slop {
				t.Fatalf("node %d rate %v outside envelope", u, dl/dt)
			}
			prev[u] = b.Logical(u)
		}
		prevT = now
	})
	rt.Run(100)
}
