package gradsync

import (
	"math"
	"strings"
	"testing"
)

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Topology: LineTopology(4)}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.Mu != 0.1 || cfg.Rho != 0.1/60 || cfg.Tick != 0.02 || cfg.BeaconInterval != 0.25 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if cfg.Link == (Link{}) {
		t.Error("link defaults not applied")
	}
	if cfg.Algorithm.kind != "aopt" || cfg.Estimates.kind != "oracle" {
		t.Errorf("algorithm/estimates defaults wrong: %+v", cfg)
	}
}

func TestConfigErrors(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no topology", Config{}, "topology"},
		{"bad initial clocks", Config{Topology: LineTopology(4), InitialClocks: []float64{1, 2}}, "InitialClocks"},
		// A walk step of 0 or below used to panic in drift.NewRandomWalk, and
		// a NaN step passed its check and then panicked indexing the path.
		{"walk step zero", Config{Topology: LineTopology(4), Drift: RandomWalkDrift(0)}, "RandomWalkDrift"},
		{"walk step negative", Config{Topology: LineTopology(4), Drift: RandomWalkDrift(-1)}, "RandomWalkDrift"},
		{"walk step NaN", Config{Topology: LineTopology(4), Drift: RandomWalkDrift(math.NaN())}, "RandomWalkDrift"},
		{"walk step +Inf", Config{Topology: LineTopology(4), Drift: RandomWalkDrift(math.Inf(1))}, "RandomWalkDrift"},
		{"windowed walk step NaN", Config{Topology: LineTopology(4), Drift: WindowedDrift(RandomWalkDrift(math.NaN()), 0, 1)}, "RandomWalkDrift"},
		{"random extra negative", Config{Topology: RandomTopology(7, -1)}, "RandomTopology"},
		{"random extra NaN", Config{Topology: RandomTopology(7, math.NaN())}, "RandomTopology"},
		{"random extra +Inf", Config{Topology: RandomTopology(7, math.Inf(1))}, "RandomTopology"},
		{"random extra -Inf", Config{Topology: RandomTopology(7, math.Inf(-1))}, "RandomTopology"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New() error = %v, want mention of %q", err, tc.want)
			}
		})
	}
	if _, err := New(Config{Topology: LineTopology(4), Estimates: OracleEstimates("nope")}); err == nil {
		t.Error("unknown oracle policy accepted")
	}
	if _, err := New(Config{Topology: LineTopology(4), Algorithm: BlockSyncAlgo(0)}); err == nil {
		t.Error("zero block size accepted")
	}
	// InitialClocks on an algorithm is supported for all shipped algorithms,
	// but misconfigured AOPT params must surface.
	if _, err := New(Config{Topology: LineTopology(4), Mu: 0.1, Rho: 0.09}); err == nil {
		t.Error("σ < 1 configuration accepted")
	}
}

// TestRandomTopologyHugeExtra is the regression test for a hang: New with
// RandomTopology(7, 1e16) made 7·10¹⁶ random pair draws, although the
// complete graph's 21 edges were all drawn after a few dozen.
func TestRandomTopologyHugeExtra(t *testing.T) {
	net, err := New(Config{Topology: RandomTopology(7, 1e16), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(net.edges); got != 21 {
		t.Errorf("%d edges, want the complete graph's 21", got)
	}
}

func TestTopologyConstructors(t *testing.T) {
	tests := []struct {
		name string
		topo Topology
		n    int
	}{
		{"line", LineTopology(5), 5},
		{"ring", RingTopology(5), 5},
		{"star", StarTopology(5), 5},
		{"grid", GridTopology(3, 2), 6},
		{"torus", TorusTopology(3, 3), 9},
		{"random", RandomTopology(7, 0.5), 7},
		{"custom", CustomTopology(3, [][2]int{{0, 1}, {1, 2}}), 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.topo.N() != tc.n {
				t.Fatalf("N = %d, want %d", tc.topo.N(), tc.n)
			}
			net, err := New(Config{Topology: tc.topo, Seed: 2})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			net.RunFor(5)
			if g := net.GlobalSkew(); g < 0 || math.IsNaN(g) {
				t.Errorf("bad global skew %v", g)
			}
		})
	}
}

func TestMessagingModeEndToEnd(t *testing.T) {
	net := MustNew(Config{
		Topology:  LineTopology(6),
		Estimates: MessagingEstimates(true),
		Drift:     LinearDrift(),
		Seed:      4,
	})
	net.RunFor(120)
	// The messaging layer certifies its own ε from protocol parameters; it
	// is unrelated to (and here better than) the nominal model ε.
	if net.EpsEffective() <= 0 {
		t.Errorf("messaging ε = %v, want positive derived bound", net.EpsEffective())
	}
	plain := MustNew(Config{
		Topology:  LineTopology(6),
		Estimates: MessagingEstimates(false),
		Seed:      4,
	})
	if got, want := plain.EpsEffective(), 2*net.EpsEffective(); math.Abs(got-want) > 1e-9 {
		t.Errorf("uncentered ε %v should be twice the centered %v", got, net.EpsEffective())
	}
	if a := net.AdjacentSkew(); a > net.GradientBoundHops(1) {
		t.Errorf("adjacent skew %v above bound %v with messaging estimates", a, net.GradientBoundHops(1))
	}
	if c := net.Core(); c.TriggerConflicts != 0 {
		t.Errorf("trigger conflicts: %d", c.TriggerConflicts)
	}
}

func TestDynamicSkewModeEndToEnd(t *testing.T) {
	net := MustNew(Config{
		Topology:      LineTopology(6),
		Algorithm:     AOPTDynamicSkewB(1.5, 0.05),
		InitialClocks: []float64{0, 1, 2, 3, 4, 5},
		Seed:          4,
	})
	net.RunFor(150)
	if g := net.GlobalSkew(); g > 1 {
		t.Errorf("skew %v did not drain under dynamic estimates", g)
	}
}

func TestDecayingModeEndToEnd(t *testing.T) {
	net := MustNew(Config{
		Topology:  LineTopology(6),
		Algorithm: AOPTDecaying(),
		Seed:      4,
	})
	net.At(5, func(float64) {
		if err := net.AddEdge(0, 5); err != nil {
			t.Error(err)
		}
	})
	net.RunFor(60)
	// The decaying edge is active well before a leveled insertion would be.
	if lvl := net.Core().EdgeLevel(0, 5); lvl == 0 {
		t.Error("decaying edge still inactive after 55 time units")
	}
}

func TestBaselinesViaFacade(t *testing.T) {
	for _, algo := range []Algo{MaxSyncAlgo(), BlockSyncAlgo(2)} {
		net := MustNew(Config{Topology: RingTopology(6), Algorithm: algo, Seed: 5})
		net.RunFor(50)
		if net.Core() != nil {
			t.Errorf("%s: Core() should be nil for baselines", net.AlgorithmName())
		}
		if net.GlobalSkew() > 2 {
			t.Errorf("%s: skew %v unexpectedly large", net.AlgorithmName(), net.GlobalSkew())
		}
	}
}

func TestAddCutEdgeLifecycle(t *testing.T) {
	net := MustNew(Config{Topology: LineTopology(4), Seed: 6})
	if err := net.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	net.RunFor(5)
	if err := net.CutEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	net.RunFor(5)
	// Cutting an undeclared edge errors.
	if err := net.CutEdge(1, 3); err == nil {
		t.Error("CutEdge on undeclared pair accepted")
	}
}

func TestSkewByDistance(t *testing.T) {
	net := MustNew(Config{
		Topology:      LineTopology(5),
		InitialClocks: []float64{0, 1, 2, 3, 4},
		Seed:          7,
	})
	byDist := net.SkewByDistance(0)
	if len(byDist) != 4 {
		t.Fatalf("distances = %v, want 4 entries", byDist)
	}
	if byDist[4] < byDist[1] {
		t.Errorf("ramp should have larger far skew: %v", byDist)
	}
}

func TestExplicitGTildeHonored(t *testing.T) {
	net := MustNew(Config{Topology: LineTopology(4), GTilde: 42, Seed: 8})
	if net.GTilde() != 42 {
		t.Errorf("GTilde = %v, want explicit 42", net.GTilde())
	}
	// The gradient bound grows with Ĝ.
	small := MustNew(Config{Topology: LineTopology(4), GTilde: 2, Seed: 8})
	if net.GradientBoundHops(1) <= small.GradientBoundHops(1) {
		t.Error("bound not increasing in G̃")
	}
}

func TestStabilizationBoundPositive(t *testing.T) {
	net := MustNew(Config{Topology: LineTopology(4), Seed: 9})
	if b := net.StabilizationBound(); b <= 0 {
		t.Errorf("stabilization bound = %v", b)
	}
	if k := net.Kappa(); k <= 0 {
		t.Errorf("kappa = %v", k)
	}
	if s := net.Sigma(); s <= 1 {
		t.Errorf("sigma = %v", s)
	}
}
