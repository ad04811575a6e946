package core

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

const (
	tRho = 0.1 / 60
	tMu  = 0.1
)

func testLink() topo.LinkParams {
	return topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.1, Uncertainty: 0.05}
}

func testParams() Params {
	return Params{Rho: tRho, Mu: tMu, GTilde: 5}
}

// harness wires a runtime with AOPT and oracle estimates over a declared
// (but not yet visible) topology.
type harness struct {
	rt   *runner.Runtime
	algo *Algorithm
}

func newHarness(t *testing.T, n int, edges []topo.EdgeID, p Params, ds drift.Schedule) *harness {
	t.Helper()
	rt, err := runner.New(runner.Config{
		N:              n,
		Tick:           0.02,
		BeaconInterval: 0.25,
		Drift:          ds,
		Delay:          transport.RandomDelay{},
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := rt.Dyn.DeclareLink(e.U, e.V, testLink()); err != nil {
			t.Fatal(err)
		}
	}
	algo, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetEstimator(estimate.NewOracle(rt.Dyn, func(u int) float64 { return algo.Logical(u) },
		estimate.RandomError{RNG: sim.NewRNG(3)}))
	rt.Attach(algo)
	return &harness{rt: rt, algo: algo}
}

func (h *harness) appearAll(t *testing.T, edges []topo.EdgeID) {
	t.Helper()
	for _, e := range edges {
		if err := h.rt.Dyn.AppearInstant(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"valid", Params{Rho: tRho, Mu: tMu, GTilde: 5}, false},
		{"mu above 1/10", Params{Rho: tRho, Mu: 0.2, GTilde: 5}, true},
		{"sigma below 1", Params{Rho: 0.09, Mu: 0.1, GTilde: 5}, true},
		{"no gtilde", Params{Rho: tRho, Mu: tMu}, true},
		{"gtilde via estimator", Params{Rho: tRho, Mu: tMu, Skew: StaticSkew{G: 5}}, false},
		{"kappa factor at 1", Params{Rho: tRho, Mu: tMu, GTilde: 5, KappaFactor: 1}, true},
		{"custom without factor", Params{Rho: tRho, Mu: tMu, GTilde: 5, Insertion: InsertCustom}, true},
		{"negative iota", Params{Rho: tRho, Mu: tMu, GTilde: 5, Iota: -1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.p)
			if (err != nil) != tc.wantErr {
				t.Errorf("New() err = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

func TestSkewEstimators(t *testing.T) {
	if got := (StaticSkew{G: 7}).GTilde(3, 100); got != 7 {
		t.Errorf("StaticSkew = %v, want 7", got)
	}
	o := OracleSkew{Spread: func() float64 { return 4 }, Margin: 1.5, Floor: 1}
	if got := o.GTilde(0, 0); got != 7 {
		t.Errorf("OracleSkew = %v, want 1.5·4+1 = 7", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	a := MustNew(Params{Rho: tRho, Mu: tMu, GTilde: 5})
	p := a.Params()
	if p.KappaFactor != 1.1 || p.Iota != 0.05 || p.Insertion != InsertStatic {
		t.Errorf("defaults not applied: %+v", p)
	}
	b := MustNew(Params{Rho: tRho, Mu: tMu, GTilde: 5, Insertion: InsertDynamic})
	if b.Params().B < analysis.BMin(tRho) {
		t.Errorf("dynamic insertion B = %v below BMin = %v", b.Params().B, analysis.BMin(tRho))
	}
}

func TestTimeZeroEdgesFullyInserted(t *testing.T) {
	edges := topo.Line(3)
	h := newHarness(t, 3, edges, testParams(), drift.Perfect())
	h.appearAll(t, edges)
	for _, e := range edges {
		if lvl := h.algo.EdgeLevel(e.U, e.V); lvl != analysis.InfLevel {
			t.Errorf("time-0 edge %v level = %d, want InfLevel", e, lvl)
		}
	}
	if h.algo.EdgeKappa(0, 1) <= analysis.MinKappa(testLink().Eps, testLink().Tau, tMu) {
		t.Error("edge weight does not exceed the eq. (9) minimum")
	}
}

func TestDynamicEdgeInsertionLifecycle(t *testing.T) {
	edges := topo.Line(2)
	h := newHarness(t, 2, edges, testParams(), drift.Perfect())
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(1)
	// Edge appears after time 0: must go through the handshake.
	if err := h.rt.Dyn.Appear(0, 1); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(1.2)
	if lvl := h.algo.EdgeLevel(0, 1); lvl != 0 {
		t.Fatalf("level = %d right after appearance, want 0 (still in handshake)", lvl)
	}
	// After the handshake delay both sides must have agreed times.
	h.rt.Run(5)
	if h.algo.Insertions != 2 {
		t.Fatalf("insertions = %d, want 2 (both endpoints)", h.algo.Insertions)
	}
	recU, okU := h.algo.recView(0, 1)
	recV, okV := h.algo.recView(1, 0)
	if !okU || !okV {
		t.Fatal("edge records missing after handshake")
	}
	if !recU.haveTimes || !recV.haveTimes {
		t.Fatal("insertion times missing after handshake")
	}
	// Lemma 5.5 (I): both endpoints use identical T₀ and I.
	if recU.t0 != recV.t0 || recU.insDur != recV.insDur {
		t.Errorf("endpoints disagree: T0 %v vs %v, I %v vs %v", recU.t0, recV.t0, recU.insDur, recV.insDur)
	}
	// T₀ on the grid (Listing 2).
	if r := recU.t0 / recU.insDur; math.Abs(r-math.Round(r)) > 1e-9 {
		t.Errorf("T0 = %v not a multiple of I = %v", recU.t0, recU.insDur)
	}
	ins := analysis.InsertionDurationStatic(testParams().GTilde, tMu, tRho)
	if math.Abs(recU.insDur-ins) > 1e-9 {
		t.Errorf("I = %v, want eq. (10) value %v", recU.insDur, ins)
	}

	// Levels must progress monotonically from 0 to InfLevel.
	prevU := 0
	deadline := recU.t0 + recU.insDur + 10 // logical; rate ≈ 1 so same order in real time
	for h.rt.Engine.Now() < deadline {
		h.rt.Run(h.rt.Engine.Now() + 20)
		lvl := h.algo.EdgeLevel(0, 1)
		if lvl < prevU {
			t.Fatalf("level decreased from %d to %d while edge stayed up", prevU, lvl)
		}
		prevU = lvl
	}
	if lvl := h.algo.EdgeLevel(0, 1); lvl != analysis.InfLevel {
		t.Fatalf("level = %d after T0+I, want InfLevel", lvl)
	}
}

func TestEdgeLossClearsInsertion(t *testing.T) {
	edges := topo.Line(2)
	h := newHarness(t, 2, edges, testParams(), drift.Perfect())
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(1)
	if err := h.rt.Dyn.Appear(0, 1); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(10) // handshake done, insertion in progress
	if err := h.rt.Dyn.Disappear(0, 1); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(11)
	if h.algo.EdgeLevel(0, 1) != 0 || h.algo.EdgeLevel(1, 0) != 0 {
		t.Error("edge level nonzero after loss")
	}
	if rec, ok := h.algo.recView(0, 1); ok && rec.haveTimes {
		t.Error("insertion times survived edge loss (T_s must become ⊥)")
	}
}

func TestEdgeFlapDuringHandshakeAborts(t *testing.T) {
	edges := topo.Line(2)
	h := newHarness(t, 2, edges, testParams(), drift.Perfect())
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(1)
	if err := h.rt.Dyn.Appear(0, 1); err != nil {
		t.Fatal(err)
	}
	// Flap within the Δ wait (Δ ≈ 0.34 for the test link).
	h.rt.Engine.Schedule(1.15, func(sim.Time) {
		if err := h.rt.Dyn.Disappear(0, 1); err != nil {
			t.Error(err)
		}
	})
	h.rt.Run(30)
	if h.algo.Insertions != 0 {
		t.Fatalf("insertions = %d after flapped handshake, want 0", h.algo.Insertions)
	}
}

func TestModeReactsToSkew(t *testing.T) {
	edges := topo.Line(2)
	h := newHarness(t, 2, edges, testParams(), drift.Perfect())
	h.appearAll(t, edges)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Put node 0 far ahead (beyond (s+1/2)κ for small s).
	h.algo.SetLogical(0, 3)
	h.algo.SetLogical(1, 0)
	h.rt.Run(0.1)
	if h.algo.Mult(1) != 1+tMu {
		t.Errorf("behind node mult = %v, want fast (1+µ)", h.algo.Mult(1))
	}
	if h.algo.Mult(0) != 1 {
		t.Errorf("ahead node mult = %v, want slow (1)", h.algo.Mult(0))
	}
	// The gap must close over time.
	g0 := h.algo.Logical(0) - h.algo.Logical(1)
	h.rt.Run(20)
	g1 := h.algo.Logical(0) - h.algo.Logical(1)
	if g1 >= g0 {
		t.Errorf("skew did not shrink: %v -> %v", g0, g1)
	}
	if h.algo.TriggerConflicts != 0 {
		t.Errorf("trigger conflicts: %d (Lemma 5.3)", h.algo.TriggerConflicts)
	}
}

func TestMaxEstimateInvariants(t *testing.T) {
	edges := topo.Line(4)
	h := newHarness(t, 4, edges, testParams(), drift.TwoGroup{Rho: tRho, Split: 2})
	h.appearAll(t, edges)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	h.rt.Engine.NewTicker(1, 1, func(now sim.Time, _ float64) {
		maxL := math.Inf(-1)
		for u := 0; u < 4; u++ {
			if l := h.algo.Logical(u); l > maxL {
				maxL = l
			}
		}
		for u := 0; u < 4; u++ {
			m := h.algo.MaxEstimate(u)
			if m > maxL+1e-9 {
				t.Fatalf("t=%v: M_%d = %v exceeds max clock %v (Condition 4.3 eq. 2)", now, u, m, maxL)
			}
			if m < h.algo.Logical(u)-1e-9 {
				t.Fatalf("t=%v: M_%d = %v below own clock (Condition 4.3 eq. 4)", now, u, m)
			}
		}
	})
	h.rt.Run(200)
}

func TestNeighborSetMonotonicity(t *testing.T) {
	// Lemma 5.1: N^s ⊆ N^{s−1} — with the implicit representation this
	// means the level function of each edge is single-valued and membership
	// at level s implies membership at all lower levels; check via
	// NeighborLevels being well defined and positive while inserted.
	edges := topo.Line(3)
	h := newHarness(t, 3, edges, testParams(), drift.Perfect())
	h.appearAll(t, edges)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(5)
	lv := h.algo.NeighborLevels(1)
	if len(lv) != 2 {
		t.Fatalf("node 1 levels = %v, want 2 neighbors", lv)
	}
	for peer, l := range lv {
		if l != analysis.InfLevel {
			t.Errorf("peer %d level = %d, want InfLevel", peer, l)
		}
	}
}

func TestSnapshotLevelsAndKappa(t *testing.T) {
	edges := topo.Line(3)
	h := newHarness(t, 3, edges, testParams(), drift.Perfect())
	h.appearAll(t, edges)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(2)
	snap := h.algo.Snapshot()
	if len(snap.L) != 3 || len(snap.Edges) != 2 {
		t.Fatalf("snapshot shape: %d nodes, %d edges; want 3, 2", len(snap.L), len(snap.Edges))
	}
	for _, e := range snap.Edges {
		if e.Level != analysis.InfLevel {
			t.Errorf("snapshot edge %v level = %d, want InfLevel", e, e.Level)
		}
		if e.Kappa != h.algo.EdgeKappa(e.U, e.V) {
			t.Errorf("snapshot κ mismatch for %v", e)
		}
	}
}

func TestCorruptedStartDrainsAtTheoremRate(t *testing.T) {
	// Theorem 5.6 II: while the global skew exceeds D(t)+ι it decreases at
	// rate ≥ µ(1−ρ)−2ρ.
	n := 6
	edges := topo.Line(n)
	h := newHarness(t, n, edges, testParams(), drift.Perfect())
	h.appearAll(t, edges)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		h.algo.SetLogical(u, float64(u)*0.5) // spread 2.5 ≫ D+ι
	}
	spread := func() float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for u := 0; u < n; u++ {
			l := h.algo.Logical(u)
			lo = math.Min(lo, l)
			hi = math.Max(hi, l)
		}
		return hi - lo
	}
	g0 := spread()
	dur := 10.0
	h.rt.Run(dur)
	g1 := spread()
	rate := (g0 - g1) / dur
	want := analysis.GlobalDecayRate(tMu, tRho)
	if rate < want*0.8 {
		t.Errorf("drain rate %v below theorem rate %v", rate, want)
	}
	if h.algo.TriggerConflicts != 0 {
		t.Errorf("trigger conflicts during drain: %d", h.algo.TriggerConflicts)
	}
}

func TestDecayingInsertionLifecycle(t *testing.T) {
	edges := topo.Line(2)
	p := testParams()
	p.Insertion = InsertDecaying
	h := newHarness(t, 2, edges, p, drift.Perfect())
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(1)
	if err := h.rt.Dyn.Appear(0, 1); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(5) // handshake done; decay scheduled from L_ins ≈ L+G̃
	rec, okRec := h.algo.recView(0, 1)
	if !okRec {
		t.Fatal("edge record missing after handshake")
	}
	if !rec.haveTimes || !rec.decaying {
		t.Fatal("decaying schedule not agreed after handshake")
	}
	finalKappa := rec.kappa
	if rec.kappa0 < testParams().GTilde {
		t.Fatalf("initial weight %v below G̃ %v", rec.kappa0, testParams().GTilde)
	}
	// Before L_ins the edge is not yet active.
	if h.algo.Logical(0) < rec.t0 && h.algo.EdgeLevel(0, 1) != 0 {
		t.Fatal("edge active before the agreed start time")
	}
	// Run past the start: fully active at an inflated, shrinking weight.
	h.rt.Run(5 + p.GTilde + 2)
	if lvl := h.algo.EdgeLevel(0, 1); lvl != analysis.InfLevel {
		t.Fatalf("level = %d after start, want InfLevel", lvl)
	}
	k1 := h.algo.EdgeKappa(0, 1)
	if k1 <= finalKappa {
		t.Fatalf("weight %v already at final value right after start", k1)
	}
	h.rt.Run(h.rt.Engine.Now() + 20)
	k2 := h.algo.EdgeKappa(0, 1)
	if k2 >= k1 {
		t.Fatalf("weight did not decay: %v -> %v", k1, k2)
	}
	// Run until the decay completes: weight settles at κ_e. Use the
	// validated parameters (defaults applied), not the input copy.
	vp := h.algo.Params()
	needed := rec.kappa0 / (vp.DecayRate * vp.Mu)
	h.rt.Run(h.rt.Engine.Now() + needed)
	if got := h.algo.EdgeKappa(0, 1); got != finalKappa {
		t.Fatalf("final weight = %v, want κ_e = %v", got, finalKappa)
	}
	if h.algo.TriggerConflicts != 0 {
		t.Fatalf("trigger conflicts during decay: %d", h.algo.TriggerConflicts)
	}
}

func TestDecayingInsertionDrainsSkewSafely(t *testing.T) {
	// A decaying-weight edge carrying large skew must not break the
	// guarantee on neighboring static edges while it tightens.
	edges := topo.Line(4)
	p := testParams()
	p.Insertion = InsertDecaying
	h := newHarness(t, 4, edges, p, drift.Perfect())
	h.appearAll(t, edges)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Cut the middle edge, skew the halves, reconnect.
	h.rt.Run(1)
	if err := h.rt.Dyn.Disappear(1, 2); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(2)
	for u := 2; u < 4; u++ {
		h.algo.SetLogical(u, h.algo.Logical(u)+4)
	}
	if err := h.rt.Dyn.Appear(1, 2); err != nil {
		t.Fatal(err)
	}
	worstStatic := 0.0
	h.rt.Engine.NewTicker(3, 0.5, func(sim.Time, float64) {
		for _, e := range [][2]int{{0, 1}, {2, 3}} {
			s := h.algo.Logical(e[0]) - h.algo.Logical(e[1])
			if s < 0 {
				s = -s
			}
			if s > worstStatic {
				worstStatic = s
			}
		}
	})
	h.rt.Run(150)
	bound := analysis.GradientSkewBound(p.GTilde, p.Sigma(), h.algo.EdgeKappa(0, 1))
	if worstStatic > bound {
		t.Fatalf("static edge skew %v exceeded gradient bound %v during decay", worstStatic, bound)
	}
	if s := h.algo.Logical(2) - h.algo.Logical(1); s > 1 {
		t.Fatalf("bridge skew %v did not drain", s)
	}
}

// TestRedeclaredLinkRederivesConstants: a link re-declared with a wider ε
// while down must be weighed by the new ε when it reappears. Eq. (9) ties κ
// to the ε the estimates carry, so keeping the κ of the first appearance
// (0.924 for ε = 0.2) under ε = 0.8 (which needs 3.564) would void the
// trigger analysis on that edge.
func TestRedeclaredLinkRederivesConstants(t *testing.T) {
	narrow := testLink()
	wide := narrow
	wide.Eps = 0.8
	rt, err := runner.New(runner.Config{N: 2, Tick: 0.02, BeaconInterval: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Dyn.DeclareLink(0, 1, narrow); err != nil {
		t.Fatal(err)
	}
	algo := MustNew(testParams())
	rt.SetEstimator(estimate.NewOracle(rt.Dyn, algo.Logical, nil))
	rt.Attach(algo)
	if err := rt.Dyn.AppearInstant(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	rt.Run(1)
	kf := algo.Params().KappaFactor
	if got, want := algo.EdgeKappa(0, 1), analysis.Kappa(narrow.Eps, narrow.Tau, tMu, kf); got != want {
		t.Fatalf("κ = %v before the re-declare, want %v", got, want)
	}
	if err := rt.Dyn.Disappear(0, 1); err != nil {
		t.Fatal(err)
	}
	rt.Run(2)
	if err := rt.Dyn.DeclareLink(0, 1, wide); err != nil {
		t.Fatal(err)
	}
	if err := rt.Dyn.Appear(0, 1); err != nil {
		t.Fatal(err)
	}
	rt.Run(3)
	if got := rt.Est.Eps(0, 1); got != wide.Eps {
		t.Fatalf("estimate layer reports ε = %v, want %v", got, wide.Eps)
	}
	want := analysis.Kappa(wide.Eps, wide.Tau, tMu, kf)
	for _, e := range [][2]int{{0, 1}, {1, 0}} {
		if got := algo.EdgeKappa(e[0], e[1]); got != want {
			t.Errorf("κ(%d,%d) = %v after re-declaring ε = %v, want %v", e[0], e[1], got, wide.Eps, want)
		}
		if rec, _ := algo.recView(e[0], e[1]); rec.eps != wide.Eps {
			t.Errorf("record (%d,%d) keeps ε = %v", e[0], e[1], rec.eps)
		}
	}
}

// TestReusedSlotStartsFresh frees a topology slot (Undeclare) and declares a
// different pair onto it: the new edge must start with no beacon sample and
// a fresh algorithm record, although both slabs are keyed by the reused
// directed indices and the old pair left a valid sample behind.
func TestReusedSlotStartsFresh(t *testing.T) {
	rt, err := runner.New(runner.Config{N: 4, Tick: 0.02, BeaconInterval: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Dyn.DeclareLink(0, 1, testLink()); err != nil {
		t.Fatal(err)
	}
	msg := estimate.NewMessaging(4, rt.Dyn, rt.Hardware, estimate.MessagingConfig{
		Rho: tRho, Mu: tMu, BeaconInterval: 0.25, TickSlop: 0.04,
	})
	rt.SetEstimator(msg)
	algo := MustNew(testParams())
	rt.Attach(algo)
	if err := rt.Dyn.AppearInstant(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	rt.Run(2)
	if _, ok := msg.Estimate(0, 1); !ok {
		t.Fatal("no estimate on the original edge")
	}
	oldDir, _ := rt.Dyn.Dir(0, 1)
	oldEps := msg.Eps(0, 1)
	if err := rt.Dyn.Disappear(0, 1); err != nil {
		t.Fatal(err)
	}
	rt.Run(3)
	// Beacons in flight at the loss land after the invalidation and leave
	// valid samples behind.
	for _, e := range [][2]int{{0, 1}, {1, 0}} {
		msg.RecordBeacon(e[0], e[1], transport.Beacon{L: 3}, transport.Delivery{At: 3, MinTransit: 0.05})
	}
	if err := rt.Dyn.Undeclare(0, 1); err != nil {
		t.Fatal(err)
	}
	// A noisier link: its certified ε differs from the old pair's.
	noisy := testLink()
	noisy.Uncertainty = 0.08
	if err := rt.Dyn.DeclareLink(2, 3, noisy); err != nil {
		t.Fatal(err)
	}
	if dir, _ := rt.Dyn.Dir(2, 3); dir != oldDir {
		t.Fatalf("new pair got directed index %d, want the freed %d", dir, oldDir)
	}
	if _, ok := algo.recView(2, 3); ok {
		t.Fatal("new pair inherited the old pair's record before appearing")
	}
	if k := algo.EdgeKappa(2, 3); k != 0 {
		t.Fatalf("new pair reports κ = %v before appearing", k)
	}
	if err := rt.Dyn.AppearInstant(2, 3); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{2, 3}, {3, 2}} {
		misses := msg.Misses
		if v, ok := msg.Estimate(e[0], e[1]); ok {
			t.Errorf("Estimate(%d,%d) = %v from the old pair's sample", e[0], e[1], v)
		}
		if msg.Misses != misses+1 {
			t.Errorf("Estimate(%d,%d) without a sample did not count a miss", e[0], e[1])
		}
		rec, ok := algo.recView(e[0], e[1])
		switch {
		case !ok || !rec.up:
			t.Errorf("record (%d,%d) not up after the appearance", e[0], e[1])
		case rec.preInserted || rec.haveTimes || rec.decaying:
			t.Errorf("record (%d,%d) carries the old pair's insertion state: %+v", e[0], e[1], rec)
		case rec.upSince != rt.Engine.Now() || rec.eps != msg.Eps(e[0], e[1]) || rec.eps == oldEps:
			t.Errorf("record (%d,%d) = %+v, want upSince %v and ε %v", e[0], e[1], rec, rt.Engine.Now(), msg.Eps(e[0], e[1]))
		}
	}
	// The first beacon across the new edge restores estimates.
	rt.Run(4)
	if _, ok := msg.Estimate(2, 3); !ok {
		t.Fatal("no estimate once beacons cross the new edge")
	}
}
