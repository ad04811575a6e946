package scenario

import (
	"testing"

	"repro/internal/drift"
	"repro/internal/runner"
	"repro/internal/topo"
)

// testRuntime wires a minimal runtime hosting a no-op algorithm over a
// line topology, with the given scenario installed at Start.
func testRuntime(t *testing.T, n int, sc runner.Scenario, seed int64) *runner.Runtime {
	t.Helper()
	rt, err := runner.New(runner.Config{
		N: n, Tick: 0.02, BeaconInterval: 0.25,
		Drift:    drift.Perfect(),
		Scenario: sc,
		Seed:     seed,
	})
	if err != nil {
		t.Fatalf("runner.New: %v", err)
	}
	for _, e := range topo.Line(n) {
		if err := rt.Dyn.DeclareLink(e.U, e.V, topo.DefaultLinkParams()); err != nil {
			t.Fatalf("declare: %v", err)
		}
	}
	rt.SetEstimator(nopEstimator{})
	rt.Attach(&nopAlgo{})
	for _, e := range topo.Line(n) {
		if err := rt.Dyn.AppearInstant(e.U, e.V); err != nil {
			t.Fatalf("appear: %v", err)
		}
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return rt
}

func TestChurnTogglesOnlyChords(t *testing.T) {
	ch := &Churn{Every: 2}
	rt := testRuntime(t, 8, ch, 7)
	rt.Run(100)
	if ch.Err != nil {
		t.Fatalf("churn error: %v", ch.Err)
	}
	if ch.Toggles < 10 {
		t.Fatalf("churn barely ran: %d toggles", ch.Toggles)
	}
	// The protected line core must still be fully up.
	for _, e := range topo.Line(8) {
		if !rt.Dyn.BothUp(e.U, e.V) {
			t.Errorf("core edge {%d,%d} was touched by churn", e.U, e.V)
		}
	}
}

func TestChurnPoissonRuns(t *testing.T) {
	ch := &Churn{Every: 2, Poisson: true}
	rt := testRuntime(t, 8, ch, 7)
	rt.Run(100)
	if ch.Err != nil {
		t.Fatalf("churn error: %v", ch.Err)
	}
	if ch.Toggles < 10 {
		t.Fatalf("poisson churn barely ran: %d toggles", ch.Toggles)
	}
}

func TestChurnKeepsCallerPairs(t *testing.T) {
	pairs := []Pair{{6, 2}, {5, 1}} // deliberately non-canonical order
	ch := &Churn{Every: 2, Pairs: pairs}
	rt := testRuntime(t, 8, ch, 7)
	rt.Run(21)
	if ch.Err != nil {
		t.Fatalf("churn error: %v", ch.Err)
	}
	if ch.Toggles == 0 {
		t.Fatal("churn never ran")
	}
	if pairs[0] != (Pair{6, 2}) || pairs[1] != (Pair{5, 1}) {
		t.Errorf("caller's Pairs slice was mutated: %v", pairs)
	}
}

func TestChurnRejectsBadPeriod(t *testing.T) {
	ch := &Churn{}
	rt := testRuntime(t, 4, ch, 1)
	rt.Run(10)
	if ch.Err == nil {
		t.Fatal("churn with Every=0 must record an error")
	}
}

func TestScriptAppliesOpsInOrder(t *testing.T) {
	sc := NewScript(AddAt(5, 0, 3), Op{At: 10, U: 0, V: 3}, AddAt(15, 0, 3))
	rt := testRuntime(t, 6, sc, 1)
	rt.Run(7)
	if !rt.Dyn.BothUp(0, 3) {
		t.Fatal("scripted edge not up after AddAt fired")
	}
	rt.Run(12)
	if rt.Dyn.BothUp(0, 3) {
		t.Fatal("scripted edge still up after the cut fired")
	}
	rt.Run(20)
	if sc.Err != nil {
		t.Fatalf("script error: %v", sc.Err)
	}
	if sc.Applied != 3 {
		t.Fatalf("applied %d of 3 ops", sc.Applied)
	}
}

func TestPartitionHealCutsAndRestores(t *testing.T) {
	ph := &PartitionHeal{
		Parts:   [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}},
		SplitAt: 10,
		HealAt:  30,
		Bridges: []Pair{{0, 7}},
	}
	rt := testRuntime(t, 8, ph, 1)
	rt.Run(12)
	if rt.Dyn.BothUp(3, 4) {
		t.Fatal("cross-part edge {3,4} still up after split (τ elapsed)")
	}
	rt.Run(32)
	if ph.Err != nil {
		t.Fatalf("partition error: %v", ph.Err)
	}
	if !rt.Dyn.BothUp(3, 4) {
		t.Fatal("cut edge {3,4} not restored at heal")
	}
	if !rt.Dyn.BothUp(0, 7) {
		t.Fatal("bridge {0,7} not added at heal")
	}
	if ph.CutEdges != 1 || ph.HealedEdges != 2 {
		t.Fatalf("cut=%d healed=%d, want 1 and 2", ph.CutEdges, ph.HealedEdges)
	}
}

func TestPartitionHealEnforcesWindowAgainstComposedAdds(t *testing.T) {
	// A composed script raises cross-part edges right at the split (still
	// inside the detection lag) and in the middle of the window; the
	// partition must cut both and keep the graph split until heal.
	ph := &PartitionHeal{
		Parts:   [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}},
		SplitAt: 10,
		HealAt:  40,
	}
	sc := NewScript(AddAt(9.99, 1, 6), AddAt(25, 2, 5))
	rt := testRuntime(t, 8, Compose(sc, ph), 5)
	rt.Run(15)
	if rt.Dyn.BothUp(1, 6) || rt.Dyn.BothUp(3, 4) {
		t.Fatal("cross-part edges survived the split window")
	}
	rt.Run(30)
	if rt.Dyn.BothUp(2, 5) {
		t.Fatal("mid-window cross-part add was not cut by the enforcement sweep")
	}
	rt.Run(45)
	if ph.Err != nil || sc.Err != nil {
		t.Fatalf("errors: partition=%v script=%v", ph.Err, sc.Err)
	}
	for _, pair := range [][2]int{{3, 4}, {1, 6}, {2, 5}} {
		if !rt.Dyn.BothUp(pair[0], pair[1]) {
			t.Errorf("edge {%d,%d} not restored at heal", pair[0], pair[1])
		}
	}
}

func TestEdgeFlapTogglesExactly(t *testing.T) {
	fl := &EdgeFlap{U: 5, V: 0, At: 2, Period: 1, Flaps: 5}
	rt := testRuntime(t, 8, fl, 1)
	rt.Run(50)
	if fl.Err != nil {
		t.Fatalf("flap error: %v", fl.Err)
	}
	if fl.Toggles != 5 {
		t.Fatalf("toggles = %d, want 5", fl.Toggles)
	}
	// 5 transitions starting with add: up, down, up, down, up.
	if !rt.Dyn.BothUp(0, 5) {
		t.Fatal("edge should end up after an odd number of flaps")
	}
}

func TestFlashCrowdAddsBurst(t *testing.T) {
	fc := &FlashCrowd{At: 5, Count: 6}
	rt := testRuntime(t, 8, fc, 3)
	rt.Run(10)
	if fc.Err != nil {
		t.Fatalf("flashcrowd error: %v", fc.Err)
	}
	if fc.Added != 6 {
		t.Fatalf("added %d edges, want 6", fc.Added)
	}
}

func TestComposeInstallsAllChildren(t *testing.T) {
	ch := &Churn{Every: 4}
	fl := &EdgeFlap{U: 0, V: 9, At: 3, Period: 0.5, Flaps: 4}
	rt := testRuntime(t, 10, Compose(ch, fl), 11)
	rt.Run(60)
	if ch.Err != nil || fl.Err != nil {
		t.Fatalf("composed errors: churn=%v flap=%v", ch.Err, fl.Err)
	}
	if ch.Toggles == 0 || fl.Toggles != 4 {
		t.Fatalf("composed children idle: churn=%d flap=%d", ch.Toggles, fl.Toggles)
	}
}

func TestRandomGeometricKeepsCompanionsConnected(t *testing.T) {
	g := &RandomGeometric{Radius: 0.2, StepEvery: 2, Companions: [][]int{{0, 1}}}
	n := 10
	rt, err := runner.New(runner.Config{
		N: n, Tick: 0.02, BeaconInterval: 0.25,
		Drift:    drift.Perfect(),
		Scenario: g,
		Seed:     3,
	})
	if err != nil {
		t.Fatalf("runner.New: %v", err)
	}
	for _, p := range g.InitialEdges(n) {
		if err := rt.Dyn.DeclareLink(p[0], p[1], topo.DefaultLinkParams()); err != nil {
			t.Fatalf("declare: %v", err)
		}
	}
	rt.SetEstimator(nopEstimator{})
	rt.Attach(&nopAlgo{})
	for _, p := range g.InitialEdges(n) {
		if err := rt.Dyn.AppearInstant(p[0], p[1]); err != nil {
			t.Fatalf("appear: %v", err)
		}
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	// The companion pair must stay connected through every reconciliation.
	for i := 0; i < 100; i++ {
		rt.Run(float64(i+1) * 2.5)
		if !rt.Dyn.BothUp(0, 1) {
			t.Fatalf("companion edge {0,1} lost at t=%v", rt.Engine.Now())
		}
	}
	if g.Err != nil {
		t.Fatalf("geometric error: %v", g.Err)
	}
	if g.Moves == 0 || g.EdgeEvents == 0 {
		t.Fatalf("mobility idle: moves=%d edgeEvents=%d", g.Moves, g.EdgeEvents)
	}
}

func TestRandomGeometricInitialEdgesConnected(t *testing.T) {
	g := &RandomGeometric{Radius: 0.2}
	n := 12
	edges := g.InitialEdges(n)
	// Union-find over the initial radius graph.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		parent[find(e[0])] = find(e[1])
	}
	root := find(0)
	for u := 1; u < n; u++ {
		if find(u) != root {
			t.Fatalf("initial geometric graph disconnected at node %d", u)
		}
	}
}

func TestChurnWavesBurstsAndProtectsCore(t *testing.T) {
	w := &ChurnWaves{WaveEvery: 10, BurstSize: 5, Spacing: 0.3}
	rt := testRuntime(t, 8, w, 7)
	rt.Run(100)
	if w.Err != nil {
		t.Fatalf("churnwaves error: %v", w.Err)
	}
	if w.Waves < 8 {
		t.Fatalf("expected ~10 waves in 100 time units, got %d", w.Waves)
	}
	if w.Toggles < 4*w.Waves {
		t.Errorf("bursts under-delivered: %d toggles over %d waves of size 5", w.Toggles, w.Waves)
	}
	// The protected line core must still be fully up.
	for _, e := range topo.Line(8) {
		if !rt.Dyn.BothUp(e.U, e.V) {
			t.Errorf("core edge {%d,%d} was touched by churn waves", e.U, e.V)
		}
	}
}

func TestChurnWavesRejectsBadPeriod(t *testing.T) {
	w := &ChurnWaves{}
	rt := testRuntime(t, 4, w, 1)
	rt.Run(10)
	if w.Err == nil {
		t.Fatal("churn waves with WaveEvery=0 must record an error")
	}
}
