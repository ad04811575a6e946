package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/drift"
	"repro/internal/topo"
)

// TestTriggerExclusivityProperty probes Lemma 5.3 over random clock
// configurations: with κ and δ inside their legal ranges, the fast and slow
// mode triggers must never hold simultaneously, for any clock values and
// any estimate errors within ±ε.
func TestTriggerExclusivityProperty(t *testing.T) {
	edges := topo.Line(5)
	h := newHarness(t, 5, edges, testParams(), drift.Perfect())
	h.appearAll(t, edges)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	f := func(raw [5]uint16) bool {
		for u, r := range raw {
			// Clock values across the whole G̃ range, in 0.15-unit steps so
			// trigger boundaries are hit often.
			h.algo.SetLogical(u, float64(r%67)*0.15)
		}
		var c modeCounters
		for u := 0; u < 5; u++ {
			h.algo.decideMode(u, 0, &c)
		}
		return c.conflicts == 0
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatalf("Lemma 5.3 violated: %v", err)
	}
}

// TestMaxModeEnvelopeProperty: whatever the clock configuration, the mode
// decision returns exactly 1 or 1+µ (Listing 3 admits nothing else).
func TestMaxModeEnvelopeProperty(t *testing.T) {
	edges := topo.Ring(4)
	h := newHarness(t, 4, edges, testParams(), drift.Perfect())
	h.appearAll(t, edges)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	f := func(raw [4]uint16) bool {
		for u, r := range raw {
			h.algo.SetLogical(u, float64(r%50)*0.2)
		}
		var c modeCounters
		for u := 0; u < 4; u++ {
			m := h.algo.decideMode(u, 0, &c)
			if m != 1 && m != 1+tMu {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(19))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMaxNodeIsSlowProperty: the node holding the maximum clock can never
// satisfy the fast trigger (the Theorem 5.6 argument) — its mode decision
// must be slow whenever its max estimate equals its own clock.
func TestMaxNodeIsSlowProperty(t *testing.T) {
	edges := topo.Line(4)
	h := newHarness(t, 4, edges, testParams(), drift.Perfect())
	h.appearAll(t, edges)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	f := func(raw [4]uint16) bool {
		maxU, maxV := 0, -1.0
		for u, r := range raw {
			v := float64(r%40) * 0.2
			h.algo.SetLogical(u, v)
			if v > maxV {
				maxU, maxV = u, v
			}
		}
		return h.algo.decideMode(maxU, 0, &modeCounters{}) == 1
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatalf("a maximum-clock node went fast: %v", err)
	}
}
