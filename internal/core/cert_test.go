package core

import (
	"math"
	"testing"

	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Targeted tests of the quiet-node certificates (cert.go). Each runs one
// scenario twice, through the fold and through refAlgo, one tick at a time,
// and fails at the first tick where a clock, a mode or a counter differs,
// so a certificate that covers a decide the fold would have changed shows
// at the tick it happens.

// certParams are testParams with an insertion that completes within a few
// units: I = 0.02·G̃/µ = 1, so level 1 lasts half a logical unit.
func certParams() Params {
	p := testParams()
	p.Insertion = InsertCustom
	p.InsertionFactor = 0.02
	return p
}

// messagingSetup selects uncentered messaging estimates and two-group drift.
func messagingSetup() harnessSetup { return harnessSetup{} }

// perNodeSetup selects per-node random oracle errors, each call with a fresh
// stream from the same seed, and two-group drift.
func perNodeSetup() harnessSetup {
	return harnessSetup{policy: estimate.NewPerNodeRandomError(diffMaxNodes, sim.NewRNG(3))}
}

// lockstep builds the scenario from setup through the fold (at parallelism
// 2) and through refAlgo, sets the clocks and lets pre edges appear at time
// 0, then advances both one tick at a time until horizon. Before every tick
// it calls before with the tick index on both sides, and after every tick
// it compares the two runs, on oracle estimates every node's next error
// draw included.
func lockstep(t *testing.T, n int, pre, later []topo.EdgeID, clocks []float64, horizon float64, setup func() harnessSetup, before func(h *harness, tick int)) (fold, ref *harness) {
	t.Helper()
	edges := append(append([]topo.EdgeID(nil), pre...), later...)
	fs, rs := setup(), setup()
	fs.par = 2
	fold = triggerHarness(t, n, edges, certParams(), 5, fs, false)
	ref = triggerHarness(t, n, edges, certParams(), 5, rs, true)
	for _, h := range []*harness{fold, ref} {
		for u, l := range clocks {
			h.algo.SetLogical(u, l)
		}
		h.appearAll(t, pre)
		if err := h.rt.Start(); err != nil {
			t.Fatal(err)
		}
	}
	tick := fold.rt.Tick()
	for k := 1; float64(k)*tick <= horizon; k++ {
		for _, h := range []*harness{fold, ref} {
			if before != nil {
				before(h, k)
			}
			// Midway between ticks, so tick k has fired on both sides.
			h.rt.Run((float64(k) + 0.5) * tick)
		}
		if d := diffAlgos(fold.algo, ref.algo); d != "" {
			t.Fatalf("tick %d: %s", k, d)
		}
		if d := diffNextDraws(fs.policy, rs.policy); d != "" {
			t.Fatalf("tick %d: %s", k, d)
		}
	}
	return fold, ref
}

// TestInsertedEdgeFiresLevelOneGuard inserts an edge after time 0 across a
// skew that fires a level-1 guard. Node 2 runs fast behind the flood of
// node 0's clock through node 1, and every guard on its one edge fails, so
// it decides under certificates. The new edge {2,3} to node 3, 1.2 behind,
// is a slow witness from level 1 on: on the tick node 2's decide first sees
// the edge at level 1, node 2 must turn slow, as it does in the reference.
// The test fails when the fold skips level-1 edges, and when a certificate
// taken while the edge was inserting reaches past its level-1 time.
func TestInsertedEdgeFiresLevelOneGuard(t *testing.T) {
	const u, v = 2, 3
	pre := []topo.EdgeID{topo.MakeEdgeID(0, 1), topo.MakeEdgeID(1, 2)}
	later := []topo.EdgeID{topo.MakeEdgeID(u, v)}
	joined := map[*harness]int{}
	fast := 1 + certParams().Mu
	fold, ref := lockstep(t, 4, pre, later, []float64{3, 0.3, 0, -1.2}, 12, messagingSetup, func(h *harness, k int) {
		if k == 25 {
			if err := h.rt.Dyn.Appear(u, v); err != nil {
				t.Fatal(err)
			}
		}
		if jk, seen := joined[h]; seen {
			if jk == k-1 && h.algo.Mult(u) != 1 {
				t.Errorf("node %d did not turn slow on the tick the edge joined its fold: mult %v", u, h.algo.Mult(u))
			}
			return
		}
		// The level node u's decide of tick k reads, from L_u before it.
		lvl := h.algo.EdgeLevel(u, v)
		if lvl < 1 {
			return
		}
		joined[h] = k
		if lvl != 1 {
			t.Errorf("the edge joined node %d's fold at level %d, want 1", u, lvl)
		}
		if h.algo.Mult(u) != fast {
			t.Errorf("node %d was not fast before the edge joined: mult %v", u, h.algo.Mult(u))
		}
	})
	k, ok := joined[fold]
	if !ok || joined[ref] != k {
		t.Fatalf("edge joined at tick %d (fold, seen %v) and %d (reference)", k, ok, joined[ref])
	}
	if fold.algo.Insertions == 0 {
		t.Fatal("no insertion completed")
	}
	if fold.algo.certTicks == 0 {
		t.Fatal("no node-tick was decided under a certificate")
	}
	t.Logf("edge joined at tick %d; %d node-ticks certified", k, fold.algo.certTicks)
}

// TestBeaconLowersCertificate drops node 3's clock 2 units mid-run, as a
// corrupted state does. Node 2 runs fast behind the flood of node 0's clock,
// quiet on both its edges, so it decides under certificates; it learns of
// the drop only from node 3's next beacon, which makes node 3 a slow witness
// and must end node 2's certificate at once. Run at several drop ticks, so
// some beacon lands inside a live certificate.
func TestBeaconLowersCertificate(t *testing.T) {
	line := topo.Line(4)
	for drop := 150; drop < 160; drop++ {
		fold, _ := lockstep(t, 4, line, nil, []float64{3, 0.3, 0, 0.2}, 5, messagingSetup, func(h *harness, k int) {
			if k == drop {
				h.algo.SetLogical(3, h.algo.Logical(3)-2)
			}
		})
		if fold.algo.certTicks == 0 {
			t.Fatalf("drop at tick %d: no node-tick was decided under a certificate", drop)
		}
		if fold.algo.Mult(2) != 1 {
			t.Fatalf("drop at tick %d: node 2 is not slow behind the dropped clock", drop)
		}
	}
}

// TestEdgeLossClearsOracleCertificate takes down the middle edge of a quiet
// line on per-node random oracle errors, at several ticks, so the loss
// lands inside live certificates of nodes 1 and 2. From then on their folds
// draw one error fewer per tick, and a certificate that outlived the loss
// would skip the old count: lockstep compares every node's next draw after
// every tick.
func TestEdgeLossClearsOracleCertificate(t *testing.T) {
	line := topo.Line(4)
	for cut := 40; cut < 48; cut++ {
		fold, _ := lockstep(t, 4, line, nil, []float64{0, 0, 0, 0}, 3, perNodeSetup, func(h *harness, k int) {
			if k == cut {
				if err := h.rt.Dyn.Disappear(1, 2); err != nil {
					t.Fatal(err)
				}
			}
		})
		if fold.algo.certTicks == 0 {
			t.Fatalf("cut at tick %d: no node-tick was decided under a certificate", cut)
		}
	}
}

// TestOracleCertificateEndsWithStretch runs a line on per-node random
// oracle errors with every hardware rate 1 until time 2, when node 3's
// drops to 0.1. Node 0 starts far ahead, so node 1 runs fast on its trigger
// and nodes 2 and 3 on their max estimates; node 2, 0.2 ahead of nodes 1
// and 3, is quiet and decides under certificates. After the switch node 3
// falls behind node 2 by about a unit per unit, until node 2's slow trigger
// turns it slow. Certificates taken before the switch assume equal rates,
// under which that takes ten times as long; node 2's first one, uncapped,
// would cover the trigger's tick, which lockstep catches.
func TestOracleCertificateEndsWithStretch(t *testing.T) {
	const switchTick = 100
	setup := func() harnessSetup {
		hs := perNodeSetup()
		hs.drift = drift.Switching{Inner: drift.PerNode{Rates: map[int]float64{3: 0.1}}, From: switchTick * 0.02, Until: math.Inf(1)}
		return hs
	}
	var certBefore uint64
	slowAfter := false
	lockstep(t, 4, topo.Line(4), nil, []float64{10, 0, 0.2, 0}, 4, setup, func(h *harness, k int) {
		if k == switchTick { // the reference side certifies nothing
			certBefore = max(certBefore, h.algo.certTicks)
		}
		if k > switchTick && h.algo.Mult(2) == 1 {
			slowAfter = true
		}
	})
	if certBefore == 0 {
		t.Fatal("no node-tick was decided under a certificate before the switch")
	}
	if !slowAfter {
		t.Fatal("node 2 did not turn slow after the switch")
	}
}
