package scenario

import (
	"testing"

	"repro/internal/drift"
	"repro/internal/runner"
	"repro/internal/topo"
)

// prefRuntime wires a runtime whose declared topology is a line over the
// first `seeds` nodes only, so growth is observable: the remaining nodes
// start with no edges at all.
func prefRuntime(t *testing.T, n, seeds int, sc runner.Scenario, seed int64) *runner.Runtime {
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
	for _, e := range topo.Line(seeds) {
		if err := rt.Dyn.DeclareLink(e.U, e.V, topo.DefaultLinkParams()); err != nil {
			t.Fatalf("declare: %v", err)
		}
	}
	rt.SetEstimator(nopEstimator{})
	rt.Attach(&nopAlgo{})
	for _, e := range topo.Line(seeds) {
		if err := rt.Dyn.AppearInstant(e.U, e.V); err != nil {
			t.Fatalf("appear: %v", err)
		}
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return rt
}

func TestPreferentialAttachmentGrowsEveryNode(t *testing.T) {
	const n, seeds = 24, 6
	p := &PreferentialAttachment{Seeds: seeds, JoinEvery: 2, M: 2}
	rt := prefRuntime(t, n, seeds, p, 11)
	rt.Run(float64(n) * 2.5)
	if p.Err != nil {
		t.Fatalf("prefattach error: %v", p.Err)
	}
	if p.Joins != n-seeds {
		t.Fatalf("joined %d nodes, want %d", p.Joins, n-seeds)
	}
	if p.Attached < p.Joins {
		t.Fatalf("only %d attachments over %d joins (M=2)", p.Attached, p.Joins)
	}
	var nbrs []int
	for u := seeds; u < n; u++ {
		nbrs = rt.Dyn.Neighbors(u, nbrs[:0])
		if len(nbrs) == 0 {
			t.Errorf("node %d joined but has no visible edges", u)
		}
	}
	// The protected seed line must be untouched.
	for _, e := range topo.Line(seeds) {
		if !rt.Dyn.BothUp(e.U, e.V) {
			t.Errorf("seed edge {%d,%d} lost during growth", e.U, e.V)
		}
	}
}

// TestPreferentialAttachmentPrefersHubs checks the degree bias statistically:
// over a long growth with many joiners, the most-attached seed node must end
// up well above the minimum seed degree (uniform attachment would keep the
// spread tight; the urn makes early winners compound).
func TestPreferentialAttachmentPrefersHubs(t *testing.T) {
	const n, seeds = 120, 4
	p := &PreferentialAttachment{Seeds: seeds, JoinEvery: 1, M: 1}
	rt := prefRuntime(t, n, seeds, p, 5)
	rt.Run(float64(n) * 1.5)
	if p.Err != nil {
		t.Fatalf("prefattach error: %v", p.Err)
	}
	maxDeg, minDeg := 0, n
	var nbrs []int
	for u := 0; u < n; u++ {
		nbrs = rt.Dyn.Neighbors(u, nbrs[:0])
		if d := len(nbrs); d > maxDeg {
			maxDeg = d
		}
	}
	for u := seeds; u < n; u++ {
		nbrs = rt.Dyn.Neighbors(u, nbrs[:0])
		if d := len(nbrs); d < minDeg {
			minDeg = d
		}
	}
	if maxDeg < 4*minDeg {
		t.Errorf("no hub formed: max degree %d vs min joiner degree %d", maxDeg, minDeg)
	}
}

func TestPreferentialAttachmentRejectsBadPeriod(t *testing.T) {
	p := &PreferentialAttachment{}
	rt := prefRuntime(t, 8, 4, p, 1)
	rt.Run(10)
	if p.Err == nil {
		t.Fatal("prefattach with JoinEvery=0 must record an error")
	}
}

func TestPreferentialAttachmentDeterministicReplay(t *testing.T) {
	grow := func() (int, int, string) {
		p := &PreferentialAttachment{Seeds: 5, JoinEvery: 1.5, M: 2}
		rt := prefRuntime(t, 30, 5, p, 17)
		rt.Run(60)
		if p.Err != nil {
			t.Fatalf("prefattach error: %v", p.Err)
		}
		sig := ""
		var nbrs []int
		for u := 0; u < 30; u++ {
			nbrs = rt.Dyn.Neighbors(u, nbrs[:0])
			for _, v := range nbrs {
				sig += string(rune('a'+u)) + string(rune('a'+v)) + ";"
			}
		}
		return p.Joins, p.Attached, sig
	}
	j1, a1, s1 := grow()
	j2, a2, s2 := grow()
	if j1 != j2 || a1 != a2 || s1 != s2 {
		t.Fatalf("two replays with the same seed diverged: joins %d/%d attached %d/%d", j1, j2, a1, a2)
	}
}
