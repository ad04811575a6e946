package core

import (
	"testing"

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

// lockstep builds the scenario through the fold (at parallelism 2) and
// through refAlgo, sets the clocks and lets pre edges appear at time 0,
// then advances both one tick at a time until horizon. Before every tick
// it calls before with the tick index on both sides, and after every tick
// it compares the two runs.
func lockstep(t *testing.T, n int, pre, later []topo.EdgeID, clocks []float64, horizon float64, before func(h *harness, tick int)) (fold, ref *harness) {
	t.Helper()
	edges := append(append([]topo.EdgeID(nil), pre...), later...)
	fold = triggerHarness(t, n, edges, certParams(), 5, harnessSetup{par: 2}, false)
	ref = triggerHarness(t, n, edges, certParams(), 5, harnessSetup{}, true)
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
// covers a node whose edge is still inserting.
func TestInsertedEdgeFiresLevelOneGuard(t *testing.T) {
	const u, v = 2, 3
	pre := []topo.EdgeID{topo.MakeEdgeID(0, 1), topo.MakeEdgeID(1, 2)}
	later := []topo.EdgeID{topo.MakeEdgeID(u, v)}
	joined := map[*harness]int{}
	fast := 1 + certParams().Mu
	fold, ref := lockstep(t, 4, pre, later, []float64{3, 0.3, 0, -1.2}, 12, func(h *harness, k int) {
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
		fold, _ := lockstep(t, 4, line, nil, []float64{3, 0.3, 0, 0.2}, 5, func(h *harness, k int) {
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
