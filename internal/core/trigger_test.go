package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// This file pins the single-pass trigger engine (evalTriggers) to the
// reference per-level double loop (evalTriggersRef): the two must make
// byte-identical mode decisions, and full runs driven by either must agree
// on every counter and every clock. The fold is only correct because each
// trigger condition is prefix-closed in the level s — these tests are the
// evidence that claim survives floating point.

// triggerHarness is newHarness with a controllable seed and estimate policy,
// so the differential runs can replay the same adversary byte for byte.
func triggerHarness(t *testing.T, n int, edges []topo.EdgeID, p Params, seed int64, policy estimate.ErrorPolicy) *harness {
	t.Helper()
	rt, err := runner.New(runner.Config{
		N:              n,
		Tick:           0.02,
		BeaconInterval: 0.25,
		Drift:          drift.TwoGroup{Rho: p.Rho, Split: n / 2},
		Delay:          transport.RandomDelay{},
		Seed:           seed,
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
	rt.SetEstimator(estimate.NewOracle(rt.Dyn, func(u int) float64 { return algo.Logical(u) }, policy))
	rt.Attach(algo)
	return &harness{rt: rt, algo: algo}
}

// diffTopology builds a random connected topology: a line backbone plus a
// few seeded chords, split into the time-0 core and later-toggled extras.
func diffTopology(n int, rng *rand.Rand) (core, extra []topo.EdgeID) {
	core = topo.Line(n)
	for i := 0; i < n/2; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		id := topo.MakeEdgeID(u, v)
		if id.V-id.U <= 1 { // already a line edge
			continue
		}
		extra = append(extra, id)
	}
	return core, extra
}

// runTriggerDifferential drives one full simulation — random topology,
// random parameter draw, scripted churn on the chords so edges traverse the
// whole insertion-level ladder — and returns the algorithm state.
func runTriggerDifferential(t *testing.T, caseSeed int64, reference bool) *Algorithm {
	t.Helper()
	rng := rand.New(rand.NewSource(caseSeed))
	n := 6 + rng.Intn(8)
	core, extra := diffTopology(n, rng)
	p := Params{
		Rho:         tRho,
		Mu:          0.02 + float64(rng.Intn(9))*0.01,
		GTilde:      3 + rng.Float64()*12,
		KappaFactor: 1.05 + rng.Float64(),
	}
	switch rng.Intn(3) {
	case 1:
		p.Insertion = InsertDynamic
		p.B = 6000
	case 2:
		p.Insertion = InsertDecaying
		p.DecayRate = 0.5 + rng.Float64()
	}
	all := append(append([]topo.EdgeID(nil), core...), extra...)
	h := triggerHarness(t, n, all, p, caseSeed^0x7157, estimate.RandomError{RNG: sim.NewRNG(caseSeed ^ 0xe57)})
	h.algo.refTriggers = reference
	h.algo.OverrideDeltaFraction(0.1 + rng.Float64()*0.8)
	for u := 0; u < n; u++ {
		h.algo.SetLogical(u, rng.Float64()*p.GTilde)
	}
	h.appearAll(t, core)
	// Chord churn: each extra edge appears after start and flaps on its own
	// cadence, so the run exercises handshakes, finite insertion levels,
	// aborts, and disappearances — all the states the level() switch can be
	// in while the triggers evaluate.
	for i, e := range extra {
		e := e
		period := 4 + rng.Float64()*8
		h.rt.Engine.NewTicker(1+float64(i)*0.7, period, func(sim.Time, float64) {
			if h.rt.Dyn.BothUp(e.U, e.V) {
				_ = h.rt.Dyn.Disappear(e.U, e.V)
			} else {
				_ = h.rt.Dyn.Appear(e.U, e.V)
			}
		})
	}
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	h.rt.Run(40)
	return h.algo
}

// TestTriggerEngineDifferential replays randomized full runs with the
// single-pass engine and the reference double loop: mult decisions (hence
// every logical clock, byte for byte) and the trigger counters must agree
// exactly across random topologies, parameter draws, and insertion modes.
func TestTriggerEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replays take a few seconds")
	}
	for caseSeed := int64(1); caseSeed <= 12; caseSeed++ {
		fold := runTriggerDifferential(t, caseSeed, false)
		ref := runTriggerDifferential(t, caseSeed, true)
		if fold.FastTicks != ref.FastTicks || fold.SlowTicks != ref.SlowTicks ||
			fold.TriggerConflicts != ref.TriggerConflicts ||
			fold.MissingEstimates != ref.MissingEstimates ||
			fold.Insertions != ref.Insertions {
			t.Errorf("seed %d: counters diverged: fold fast=%d slow=%d conflicts=%d missing=%d ins=%d, ref fast=%d slow=%d conflicts=%d missing=%d ins=%d",
				caseSeed,
				fold.FastTicks, fold.SlowTicks, fold.TriggerConflicts, fold.MissingEstimates, fold.Insertions,
				ref.FastTicks, ref.SlowTicks, ref.TriggerConflicts, ref.MissingEstimates, ref.Insertions)
		}
		for u := 0; u < fold.n; u++ {
			if fold.l[u] != ref.l[u] || fold.m[u] != ref.m[u] || fold.mult[u] != ref.mult[u] {
				t.Errorf("seed %d node %d: state diverged: L %v vs %v, M %v vs %v, mult %v vs %v",
					caseSeed, u, fold.l[u], ref.l[u], fold.m[u], ref.m[u], fold.mult[u], ref.mult[u])
				break
			}
		}
	}
}

// TestTriggerSinglePassMatchesReferenceOnRandomClocks compares the two
// evaluation paths on the same live instance across random clock
// configurations (the deterministic Amplify policy makes consecutive
// Estimate calls repeatable, so both paths see identical inputs).
func TestTriggerSinglePassMatchesReferenceOnRandomClocks(t *testing.T) {
	edges := topo.Ring(7)
	h := triggerHarness(t, 7, edges, testParams(), 11, estimate.Amplify{})
	h.appearAll(t, edges)
	if err := h.rt.Start(); err != nil {
		t.Fatal(err)
	}
	f := func(raw [7]uint16) bool {
		for u, r := range raw {
			h.algo.SetLogical(u, float64(r%89)*0.11)
		}
		var c modeCounters
		for u := 0; u < 7; u++ {
			fastFold, slowFold := h.algo.evalTriggers(u, &c)
			fastRef, slowRef := h.algo.evalTriggersRef(u, &c)
			if fastFold != fastRef || slowFold != slowRef {
				t.Logf("node %d: fold (%v,%v) vs ref (%v,%v)", u, fastFold, slowFold, fastRef, slowRef)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(29))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatalf("single-pass decisions diverged from reference: %v", err)
	}
}

// scanLevel is the oracle for the threshold helpers: the literal largest
// s ∈ [0, top] satisfying pred, found by scanning every level like the
// reference double loop does.
func scanLevel(top int, pred func(s int) bool) int {
	for s := top; s >= 1; s-- {
		if pred(s) {
			return s
		}
	}
	return 0
}

// checkLevels compares all four threshold helpers against the per-level
// scan for one parameter tuple, and, for top ≥ 1, each helper's level-1
// guard against the scan: evalTriggers skips a helper when its guard is
// false, which is exact only if the guard is false precisely when the scan
// finds no level. It reports a description of the first mismatch, or ""
// when all agree.
func checkLevels(ahead, kappa, delta, eps, tau, mu, rho float64, top int) (string, bool) {
	if !(kappa > 0) || math.IsInf(kappa, 1) || math.IsNaN(ahead) || math.IsInf(ahead, 0) ||
		!(eps >= 0) || !(delta >= 0) || !(tau >= 0) || !(mu > 0) || !(rho >= 0) ||
		math.IsInf(eps, 1) || math.IsInf(delta, 1) || math.IsInf(tau, 1) {
		return "", false // outside the algorithm's validated domain
	}
	a := &Algorithm{p: Params{Mu: mu, Rho: rho}}
	behind := -ahead
	for _, c := range []struct {
		name  string
		got   int
		want  int
		guard bool
	}{
		{"fastWitness", fastWitnessLevel(ahead, kappa, eps, top),
			scanLevel(top, func(s int) bool { return ahead >= float64(s)*kappa-eps }),
			fastWitness1(ahead, kappa, eps)},
		{"fastBlocked", a.fastBlockedLevel(behind, kappa, eps, tau, top),
			scanLevel(top, func(s int) bool { return behind > float64(s)*kappa+2*mu*tau+eps }),
			a.fastBlocked1(behind, kappa, eps, tau)},
		{"slowWitness", slowWitnessLevel(behind, kappa, delta, eps, top),
			scanLevel(top, func(s int) bool { return behind >= (float64(s)+0.5)*kappa-delta-eps }),
			slowWitness1(behind, kappa, delta, eps)},
		{"slowBlocked", a.slowBlockedLevel(ahead, kappa, delta, eps, tau, top),
			scanLevel(top, func(s int) bool {
				return ahead > (float64(s)+0.5)*kappa+delta+eps+mu*(1+rho)*tau
			}),
			a.slowBlocked1(ahead, kappa, delta, eps, tau)},
	} {
		if c.got != c.want {
			return c.name, true
		}
		if top >= 1 && c.guard != (c.want > 0) {
			return c.name + " level-1 guard", true
		}
	}
	return "", true
}

// levelBoundary returns the clock difference ahead = est−L_u that sits
// exactly on the level-s boundary of one of the four trigger inequalities
// (cond 0–3: fast witness, fast blocked, slow witness, slow blocked),
// computed with the inequality's own float expression.
func levelBoundary(cond, s int, kappa, delta, eps, tau, mu, rho float64) float64 {
	fs := float64(s)
	switch cond {
	case 0:
		return fs*kappa - eps
	case 1:
		return -(fs*kappa + 2*mu*tau + eps)
	case 2:
		return -((fs+0.5)*kappa - delta - eps)
	default:
		return (fs+0.5)*kappa + delta + eps + mu*(1+rho)*tau
	}
}

// TestTriggerLevelThresholdsMatchScan hammers the threshold inversion with
// adversarial magnitudes, including values right at trigger boundaries
// where the division seed and the comparison can round differently. A
// third of the cases sit on (or one ulp around) an exact boundary of one
// inequality, mostly at level 1, which is where a level-1 guard that
// flips ≥ and > or adds its terms in another order goes wrong.
func TestTriggerLevelThresholdsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mags := []float64{1e-9, 1e-3, 0.21, 1, 42, 1e6, 1e12}
	for i := 0; i < 30000; i++ {
		kappa := mags[rng.Intn(len(mags))] * (0.5 + rng.Float64())
		top := rng.Intn(100)
		delta, eps, tau := rng.Float64()*kappa, rng.Float64()*0.3, rng.Float64()*0.2
		mu, rho := 0.01+rng.Float64()*0.09, rng.Float64()*0.01
		var ahead float64
		switch rng.Intn(3) {
		case 0:
			// Exactly on (or one ulp around) a multiple of κ.
			ahead = float64(rng.Intn(top+2)) * kappa
		case 1:
			// Exactly on (or one ulp around) one inequality's boundary.
			s := 1
			if rng.Intn(2) == 0 {
				s = 1 + rng.Intn(top+1)
			}
			ahead = levelBoundary(rng.Intn(4), s, kappa, delta, eps, tau, mu, rho)
		default:
			ahead = (rng.Float64()*2 - 1) * mags[rng.Intn(len(mags))]
		}
		switch rng.Intn(4) {
		case 0:
			ahead = math.Nextafter(ahead, math.Inf(1))
		case 1:
			ahead = math.Nextafter(ahead, math.Inf(-1))
		}
		desc, checked := checkLevels(ahead, kappa, delta, eps, tau, mu, rho, top)
		if checked && desc != "" {
			t.Fatalf("case %d: %s diverged from per-level scan (ahead=%v kappa=%v delta=%v eps=%v tau=%v mu=%v rho=%v top=%d)",
				i, desc, ahead, kappa, delta, eps, tau, mu, rho, top)
		}
	}
}

// FuzzTriggerLevels lets the fuzzer look for parameter tuples where the
// inverted thresholds disagree with the literal per-level scan. Run with
// `go test -fuzz FuzzTriggerLevels ./internal/core`; the corpus below runs
// on every plain `go test`.
func FuzzTriggerLevels(f *testing.F) {
	f.Add(1.05, 1.05, 0.1, 0.2, 0.1, 0.1, 0.001, uint8(8))
	f.Add(0.0, 0.84, 0.0, 0.2, 0.1, 0.05, 0.0016, uint8(96))
	f.Add(-3.2, 2.5, 0.4, 0.01, 0.0, 0.02, 0.0, uint8(1))
	f.Add(1e12, 1e-9, 0.0, 0.0, 0.0, 0.1, 0.009, uint8(255))
	// The level-1 boundary of each inequality, where the guards decide.
	kappa, delta, eps, tau, mu, rho := 0.84, 0.13, 0.2, 0.1, 0.05, 0.0016
	for cond := 0; cond < 4; cond++ {
		f.Add(levelBoundary(cond, 1, kappa, delta, eps, tau, mu, rho), kappa, delta, eps, tau, mu, rho, uint8(3))
	}
	f.Fuzz(func(t *testing.T, ahead, kappa, delta, eps, tau, mu, rho float64, topRaw uint8) {
		top := int(topRaw)
		if desc, checked := checkLevels(ahead, kappa, delta, eps, tau, mu, rho, top); checked && desc != "" {
			t.Fatalf("%s diverged from per-level scan (ahead=%v kappa=%v delta=%v eps=%v tau=%v mu=%v rho=%v top=%d)",
				desc, ahead, kappa, delta, eps, tau, mu, rho, top)
		}
	})
}
