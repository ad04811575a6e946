package topo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testParams() LinkParams {
	return LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.1, Uncertainty: 0.05}
}

type recordingListener struct {
	ups, downs [][3]float64 // self, peer, t
}

func (r *recordingListener) EdgeUp(self, peer int, t sim.Time) {
	r.ups = append(r.ups, [3]float64{float64(self), float64(peer), t})
}

func (r *recordingListener) EdgeDown(self, peer int, t sim.Time) {
	r.downs = append(r.downs, [3]float64{float64(self), float64(peer), t})
}

// install declares every edge with the same parameters and makes it visible
// instantly, the paper's time-0 assumption that all neighbor sets start
// fully populated.
func install(t *testing.T, d *Dynamic, edges []EdgeID, p LinkParams) {
	t.Helper()
	for _, e := range edges {
		if err := d.DeclareLink(e.U, e.V, p); err != nil {
			t.Fatalf("declare %v: %v", e, err)
		}
		if err := d.AppearInstant(e.U, e.V); err != nil {
			t.Fatalf("appear %v: %v", e, err)
		}
	}
}

// ageBoth returns how long {u,v} has been continuously visible to both
// endpoints, or false if it is not currently both-up.
func ageBoth(d *Dynamic, u, v int, now sim.Time) (float64, bool) {
	dir, ok := d.Dir(u, v)
	if !ok {
		return 0, false
	}
	return d.ageBothSlot(dir>>1, now)
}

// hopDiameter returns the maximum BFS eccentricity over edges at least
// minAge old, and whether that subgraph is connected.
func hopDiameter(d *Dynamic, now sim.Time, minAge float64) (int, bool) {
	diam := 0
	for u := 0; u < d.N(); u++ {
		for _, v := range d.HopDistances(u, now, minAge) {
			if v < 0 {
				return 0, false
			}
			diam = max(diam, v)
		}
	}
	return diam, true
}

func TestLinkParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       LinkParams
		wantErr bool
	}{
		{"valid", testParams(), false},
		{"zero eps", LinkParams{Eps: 0, Tau: 0.1, Delay: 0.1}, true},
		{"negative tau", LinkParams{Eps: 0.1, Tau: -1, Delay: 0.1}, true},
		{"zero delay", LinkParams{Eps: 0.1, Tau: 0.1, Delay: 0}, true},
		{"uncertainty above delay", LinkParams{Eps: 0.1, Tau: 0.1, Delay: 0.1, Uncertainty: 0.2}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() error = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

func TestMakeEdgeIDCanonical(t *testing.T) {
	if MakeEdgeID(3, 1) != (EdgeID{U: 1, V: 3}) {
		t.Error("MakeEdgeID did not canonicalize order")
	}
	if MakeEdgeID(1, 3) != (EdgeID{U: 1, V: 3}) {
		t.Error("MakeEdgeID reordered a canonical pair")
	}
}

func TestDeclareAndInstantAppear(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDynamic(4, eng, sim.NewRNG(1))
	if err := d.DeclareLink(0, 1, testParams()); err != nil {
		t.Fatal(err)
	}
	if d.Sees(0, 1) || d.Sees(1, 0) {
		t.Fatal("declared link should start down")
	}
	if err := d.AppearInstant(0, 1); err != nil {
		t.Fatal(err)
	}
	if !d.Sees(0, 1) || !d.Sees(1, 0) || !d.BothUp(0, 1) {
		t.Fatal("instant appear should make both directions visible")
	}
	if d.Sees(0, 2) {
		t.Fatal("undeclared pair should not be visible")
	}
}

func TestAppearDetectionWithinTau(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDynamic(2, eng, sim.NewRNG(3))
	lis := &recordingListener{}
	d.SetListener(lis)
	p := testParams()
	if err := d.DeclareLink(0, 1, p); err != nil {
		t.Fatal(err)
	}
	if err := d.Appear(0, 1); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1)
	if len(lis.ups) != 2 {
		t.Fatalf("got %d up events, want 2", len(lis.ups))
	}
	for _, up := range lis.ups {
		if up[2] < 0 || up[2] > p.Tau {
			t.Errorf("discovery at %v outside [0, τ=%v]", up[2], p.Tau)
		}
	}
	if gap := lis.ups[0][2] - lis.ups[1][2]; gap > p.Tau || gap < -p.Tau {
		t.Errorf("endpoints discovered %v apart, want within τ", gap)
	}
}

func TestDisappearAndAge(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDynamic(2, eng, sim.NewRNG(5))
	lis := &recordingListener{}
	d.SetListener(lis)
	if err := d.DeclareLink(0, 1, testParams()); err != nil {
		t.Fatal(err)
	}
	if err := d.AppearInstant(0, 1); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10)
	age, ok := ageBoth(d, 0, 1, eng.Now())
	if !ok || age != 10 {
		t.Fatalf("ageBoth = %v, %v; want 10, true", age, ok)
	}
	if err := d.Disappear(0, 1); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(11)
	if d.BothUp(0, 1) {
		t.Fatal("edge still both-up after disappear + τ")
	}
	if len(lis.downs) != 2 {
		t.Fatalf("got %d down events, want 2", len(lis.downs))
	}
	if _, ok := ageBoth(d, 0, 1, eng.Now()); ok {
		t.Fatal("ageBoth should report not-up after disappearance")
	}
}

func TestFlapSupersedesPendingTransition(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDynamic(2, eng, sim.NewRNG(7))
	p := testParams()
	p.Tau = 5 // long detection lag so we can flap inside it
	if err := d.DeclareLink(0, 1, p); err != nil {
		t.Fatal(err)
	}
	if err := d.Appear(0, 1); err != nil {
		t.Fatal(err)
	}
	// Before detection completes, the edge disappears again.
	eng.Schedule(0.5, func(sim.Time) {
		if err := d.Disappear(0, 1); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(20)
	if d.Sees(0, 1) || d.Sees(1, 0) {
		t.Fatal("flapped edge ended visible; pending up-transition not superseded")
	}
}

func TestSelfLoopAndRangeErrors(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDynamic(2, eng, sim.NewRNG(1))
	if err := d.DeclareLink(1, 1, testParams()); err == nil {
		t.Error("self loop accepted")
	}
	if err := d.DeclareLink(0, 5, testParams()); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := d.Appear(0, 1); err == nil {
		t.Error("Appear on undeclared link accepted")
	}
}

func TestNeighborsAndStableEdges(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDynamic(4, eng, sim.NewRNG(1))
	install(t, d, Line(4), testParams())
	eng.RunUntil(5)
	nbrs := d.Neighbors(1, nil)
	if len(nbrs) != 2 {
		t.Fatalf("node 1 neighbors = %v, want 2 entries", nbrs)
	}
	// Every edge is 5 old: all are stable at minAge 4, none at minAge 6.
	if dist := d.HopDistances(0, eng.Now(), 4); dist[3] != 3 {
		t.Fatalf("hop distances over edges ≥ 4 old = %v, want the whole line", dist)
	}
	if dist := d.HopDistances(0, eng.Now(), 6); dist[1] != -1 {
		t.Fatalf("edges younger than 6 reported stable: %v", dist)
	}
}

func TestHopDistancesAndDiameter(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDynamic(5, eng, sim.NewRNG(1))
	install(t, d, Line(5), testParams())
	dist := d.HopDistances(0, eng.Now(), 0)
	for i, v := range dist {
		if v != i {
			t.Fatalf("dist[%d] = %d, want %d", i, v, i)
		}
	}
	diam, conn := hopDiameter(d, eng.Now(), 0)
	if !conn || diam != 4 {
		t.Fatalf("diameter = %d, connected = %v; want 4, true", diam, conn)
	}
	// Cutting the middle disconnects.
	if err := d.Disappear(2, 3); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1)
	if _, conn := hopDiameter(d, eng.Now(), 0); conn {
		t.Fatal("graph reported connected after cut")
	}
}

func TestBuildersShapes(t *testing.T) {
	tests := []struct {
		name      string
		edges     []EdgeID
		n         int
		wantEdges int
	}{
		{"line", Line(5), 5, 4},
		{"ring", Ring(5), 5, 5},
		{"ring2", Ring(2), 2, 1},
		{"star", Star(5), 5, 4},
		{"grid", Grid(3, 2), 6, 7},
		{"torus", Torus(3, 3), 9, 18},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.edges) != tc.wantEdges {
				t.Fatalf("got %d edges, want %d: %v", len(tc.edges), tc.wantEdges, tc.edges)
			}
			for _, e := range tc.edges {
				if e.U < 0 || e.V >= tc.n || e.U >= e.V {
					t.Fatalf("bad edge %v", e)
				}
			}
		})
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		rng := sim.NewRNG(seed)
		edges := RandomConnected(n, 0.5, rng)
		eng := sim.NewEngine()
		d := NewDynamic(n, eng, rng)
		install(t, d, edges, testParams())
		_, conn := hopDiameter(d, eng.Now(), 0)
		return conn
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRandomConnectedStopsAtCompleteGraph is the regression test for a hang:
// an extra of 10¹⁶ asked for 7·10¹⁶ pair draws on 7 nodes, although all 21
// pairs are edges after a few dozen. Draw counts past the int range, +Inf
// included, must end at the complete graph too.
func TestRandomConnectedStopsAtCompleteGraph(t *testing.T) {
	for _, extra := range []float64{1e16, 1e300, math.Inf(1)} {
		if got := len(RandomConnected(7, extra, sim.NewRNG(3))); got != 21 {
			t.Errorf("extra %g: %d edges, want the complete graph's 21", extra, got)
		}
	}
}
