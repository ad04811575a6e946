package core

import (
	"fmt"
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
// reference per-level double loop (evalTriggersRef, below): the two must
// make byte-identical mode decisions, and full runs driven by either must
// agree on every counter and every clock. The fold is only correct because
// each trigger condition is prefix-closed in the level s — these tests are
// the evidence that claim survives floating point.

// edgeEval caches per-edge values for one reference trigger evaluation.
type edgeEval struct {
	level int
	est   float64
	kappa float64
	delta float64
	eps   float64
	tau   float64
}

// refAlgo is AOPT deciding through the reference triggers: its Step
// decides every node serially with evalTriggersRef, then integrates and
// folds the counters as Algorithm.Step does. Everything else is the
// embedded Algorithm's.
type refAlgo struct {
	*Algorithm
	evals []edgeEval // scratch shared across nodes, hence the serial Step
}

// Step implements runner.Algorithm.
func (r *refAlgo) Step(_ sim.Time, dH []float64) {
	a := r.Algorithm
	c := &a.ctr[0]
	for u := 0; u < a.n; u++ {
		fast, slow := r.evalTriggersRef(u, c)
		if fast && slow {
			c.conflicts++
		}
		_, isFast := NextMode(fast, slow, a.clocks[u].l, a.clocks[u].m, a.Mult(u), a.p.Mu, Iota)
		c.count(isFast)
		a.mode[u] = modeOf(isFast)
	}
	a.dHTick = dH
	a.integrateShard(0, 0, a.n)
	a.mergeCounters()
}

// CanStepNodes keeps tick crossing off: the reference decides in Step only.
func (r *refAlgo) CanStepNodes() bool { return false }

// evalTriggersRef gathers per-edge values, then scans every level s with
// the literal double loops.
func (r *refAlgo) evalTriggersRef(u int, c *modeCounters) (fast, slow bool) {
	a := r.Algorithm
	r.evals = r.evals[:0]
	maxLevel := 0
	// Estimate(u, v), not EstimateAt: the gather doubles as a check that
	// the fold's index reads return what the pair lookups return.
	peers, dirs := a.rt.Dyn.Row(u)
	for i, dir := range dirs {
		if a.recFlags[dir]&recUp == 0 {
			continue
		}
		lvl := a.level(u, dir)
		if lvl < 1 {
			continue
		}
		est, ok := a.rt.Est.Estimate(u, int(peers[i]))
		if !ok {
			c.missing++
			continue
		}
		cls := &a.classes[a.recClass[dir]]
		kappa := a.kappaAt(dir, cls.kappa, a.clocks[u].l)
		r.evals = append(r.evals, edgeEval{
			level: lvl, est: est,
			kappa: kappa, delta: a.deltaAt(cls, kappa),
			eps: cls.eps, tau: cls.tau,
		})
		if lvl > maxLevel {
			maxLevel = lvl
		}
	}
	return r.fastTriggerRef(u, maxLevel), r.slowTriggerRef(u, maxLevel)
}

// fastTriggerRef is Definition 4.5: ∃s with a level-s neighbor ahead by
// ≥ s·κ − ε while no level-s neighbor is behind by > s·κ + 2µτ + ε.
func (r *refAlgo) fastTriggerRef(u, maxLevel int) bool {
	a := r.Algorithm
	lu := a.clocks[u].l
	top := a.sMax
	if maxLevel < top {
		top = maxLevel
	}
	for s := 1; s <= top; s++ {
		fs := float64(s)
		witness, blocked := false, false
		for i := range r.evals {
			ev := &r.evals[i]
			if ev.level < s {
				continue
			}
			if ev.est-lu >= fs*ev.kappa-ev.eps {
				witness = true
			}
			if lu-ev.est > fs*ev.kappa+2*a.p.Mu*ev.tau+ev.eps {
				blocked = true
				break
			}
		}
		if witness && !blocked {
			return true
		}
	}
	return false
}

// slowTriggerRef is Definition 4.6: ∃s with a level-s neighbor behind by
// ≥ (s+½)κ − δ − ε while no level-s neighbor is ahead by
// > (s+½)κ + δ + ε + µ(1+ρ)τ.
func (r *refAlgo) slowTriggerRef(u, maxLevel int) bool {
	a := r.Algorithm
	lu := a.clocks[u].l
	top := a.sMax
	if maxLevel < top {
		top = maxLevel
	}
	for s := 1; s <= top; s++ {
		fs := float64(s) + 0.5
		witness, blocked := false, false
		for i := range r.evals {
			ev := &r.evals[i]
			if ev.level < s {
				continue
			}
			if lu-ev.est >= fs*ev.kappa-ev.delta-ev.eps {
				witness = true
			}
			if ev.est-lu > fs*ev.kappa+ev.delta+ev.eps+a.p.Mu*(1+a.p.Rho)*ev.tau {
				blocked = true
				break
			}
		}
		if witness && !blocked {
			return true
		}
	}
	return false
}

// harnessSetup configures a trigger harness beyond its topology and
// parameters.
type harnessSetup struct {
	// policy selects oracle estimates with these errors; nil selects
	// messaging estimates, shifted to a symmetric error when centered.
	policy   estimate.ErrorPolicy
	centered bool
	// drift is the hardware clock schedule; nil is TwoGroup at ρ.
	drift drift.Schedule
	// par is the Tick- and EventParallelism of the runtime, which the
	// reference side ignores. These networks are far below runner's
	// inlineTickNodes, so the tick runs on one goroutine at any par; par
	// shards the event drain.
	par int
}

// triggerHarness is newHarness with a controllable seed, estimate layer,
// drift and parallelism, so the differential runs can replay the same
// adversary byte for byte. With reference set, the runtime drives the
// algorithm through refAlgo, on a serial drain.
func triggerHarness(t *testing.T, n int, edges []topo.EdgeID, p Params, seed int64, hs harnessSetup, reference bool) *harness {
	t.Helper()
	ds := hs.drift
	if ds == nil {
		ds = drift.TwoGroup{Rho: p.Rho, Split: n / 2}
	}
	par := hs.par
	if reference {
		par = 1
	}
	rt, err := runner.New(runner.Config{
		N:                n,
		Tick:             0.02,
		BeaconInterval:   0.25,
		Drift:            ds,
		Delay:            transport.RandomDelay{},
		Seed:             seed,
		TickParallelism:  par,
		EventParallelism: par,
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
	if hs.policy != nil {
		rt.SetEstimator(estimate.NewOracle(rt.Dyn, func(u int) float64 { return algo.Logical(u) }, hs.policy))
	} else {
		rt.SetEstimator(estimate.NewMessaging(n, rt.Dyn, rt.Hardware, estimate.MessagingConfig{
			Rho: p.Rho, Mu: p.Mu, BeaconInterval: 0.25, TickSlop: 0.04, Centered: hs.centered,
		}))
	}
	if reference {
		rt.Attach(&refAlgo{Algorithm: algo})
	} else {
		rt.Attach(algo)
	}
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
// whole insertion-level ladder — and returns the algorithm state. hs selects
// the estimate layer and the fold side's parallelism.
func runTriggerDifferential(t *testing.T, caseSeed int64, hs harnessSetup, reference bool) *Algorithm {
	t.Helper()
	rng := rand.New(rand.NewSource(caseSeed))
	n := 6 + rng.Intn(diffMaxNodes-6)
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
		p.decayRate = 0.5 + rng.Float64()
	}
	all := append(append([]topo.EdgeID(nil), core...), extra...)
	h := triggerHarness(t, n, all, p, caseSeed^0x7157, hs, reference)
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
// single-pass engine and, through refAlgo, the reference double loop: mult
// decisions (hence every logical clock, byte for byte) and the trigger
// counters must agree exactly across random topologies, parameter draws,
// and insertion modes. On oracle estimates each node draws its error
// numbers in the same order on both sides, because both read one estimate
// per live edge in row order, and after the run every node's next draw must
// agree: a certified decide must leave the draws where the fold would. On
// messaging estimates, centered, uncentered and under a drift far outside
// ρ, and on per-node random and anti-convergence oracle errors, under
// two-group drift and under rates that flip every 25 ticks, the fold side
// runs at Tick- and EventParallelism 2: its barrier ticks run the serial
// tick (runner's size rule builds no tick pool at these sizes) and its
// drain runs on 2 event shards, so quiet-node certificates are set and
// consumed on the barrier Step path and, on messaging, the crossed-tick
// StepNode path. The "oracle" family runs per-node random errors on the
// serial drain. Every family must skip the fold on some node-ticks.
// internal/runner's TestPooledTickDifferential replays these estimate
// layers, and rates that flip every 25 ticks and every tick (within ρ), on
// a forced tick pool.
func TestTriggerEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replays take a few seconds")
	}
	// Rates alternate between 0.5 and 1.5 every half unit, 25 ticks:
	// oracle certificates end at the stretch ends.
	flip := drift.Flip{Rho: 0.5, Period: 0.5}
	perNode := func(caseSeed int64) estimate.ErrorPolicy {
		return estimate.NewPerNodeRandomError(diffMaxNodes, sim.NewRNG(caseSeed^0xe57))
	}
	for _, c := range []struct {
		name  string
		setup func(caseSeed int64) harnessSetup // fresh per run
	}{
		{"oracle", func(caseSeed int64) harnessSetup {
			return harnessSetup{policy: perNode(caseSeed)}
		}},
		{"per-node random", func(caseSeed int64) harnessSetup {
			return harnessSetup{policy: perNode(caseSeed), par: 2}
		}},
		{"per-node random, flip", func(caseSeed int64) harnessSetup {
			return harnessSetup{policy: perNode(caseSeed), drift: flip, par: 2}
		}},
		{"anti-convergence", func(int64) harnessSetup {
			return harnessSetup{policy: estimate.AntiConvergence{}, par: 2}
		}},
		{"anti-convergence, flip", func(int64) harnessSetup {
			return harnessSetup{policy: estimate.AntiConvergence{}, drift: flip, par: 2}
		}},
		{"messaging", func(int64) harnessSetup { return harnessSetup{par: 2} }},
		{"centered", func(int64) harnessSetup { return harnessSetup{centered: true, par: 2} }},
		// Hardware rates alternate each tick between 0.5 and 1.5, far
		// outside ρ: messaging certificates are times on each node's own
		// hardware clock and must stay exact under any schedule, including
		// one where a tick's increment is a third of the last one's.
		{"wild drift", func(int64) harnessSetup {
			return harnessSetup{drift: drift.Flip{Rho: 0.5, Period: 0.02}, par: 2}
		}},
	} {
		var certTicks, ticks uint64
		for caseSeed := int64(1); caseSeed <= 12; caseSeed++ {
			fs, rs := c.setup(caseSeed), c.setup(caseSeed)
			fold := runTriggerDifferential(t, caseSeed, fs, false)
			ref := runTriggerDifferential(t, caseSeed, rs, true)
			if d := diffAlgos(fold, ref); d != "" {
				t.Errorf("%s seed %d: %s", c.name, caseSeed, d)
			}
			if d := diffNextDraws(fs.policy, rs.policy); d != "" {
				t.Errorf("%s seed %d: %s", c.name, caseSeed, d)
			}
			certTicks += fold.certTicks
			ticks += fold.FastTicks + fold.SlowTicks
		}
		t.Logf("%s: %d of %d node-ticks decided under a certificate", c.name, certTicks, ticks)
		if certTicks == 0 {
			t.Errorf("%s: no node-tick was decided under a certificate", c.name)
		}
	}
}

// diffMaxNodes bounds the node count of runTriggerDifferential's topologies.
const diffMaxNodes = 14

// diffNextDraws describes the first node whose next oracle error differs
// between two runs' policies, or returns "" when every node's agrees (and
// on messaging runs, which have no policy).
func diffNextDraws(fold, ref estimate.ErrorPolicy) string {
	if fold == nil {
		return ""
	}
	for u := 0; u < diffMaxNodes; u++ {
		if f, r := fold.Err(u, 0, 0, 0, 1), ref.Err(u, 0, 0, 0, 1); f != r {
			return fmt.Sprintf("node %d's next error draw diverged: fold %v, ref %v", u, f, r)
		}
	}
	return ""
}

// diffAlgos describes the first difference in clocks, modes or counters
// between two runs, or returns "" when they agree exactly.
func diffAlgos(fold, ref *Algorithm) string {
	if fold.FastTicks != ref.FastTicks || fold.SlowTicks != ref.SlowTicks ||
		fold.TriggerConflicts != ref.TriggerConflicts ||
		fold.MissingEstimates != ref.MissingEstimates ||
		fold.Insertions != ref.Insertions || fold.HandshakeAborts != ref.HandshakeAborts {
		return fmt.Sprintf("counters diverged: fold fast=%d slow=%d conflicts=%d missing=%d ins=%d aborts=%d, ref fast=%d slow=%d conflicts=%d missing=%d ins=%d aborts=%d",
			fold.FastTicks, fold.SlowTicks, fold.TriggerConflicts, fold.MissingEstimates, fold.Insertions, fold.HandshakeAborts,
			ref.FastTicks, ref.SlowTicks, ref.TriggerConflicts, ref.MissingEstimates, ref.Insertions, ref.HandshakeAborts)
	}
	if m, n := missesOf(fold), missesOf(ref); m != n {
		return fmt.Sprintf("estimate misses diverged: fold %d, ref %d", m, n)
	}
	for u := 0; u < fold.n; u++ {
		if f, r := fold.clocks[u], ref.clocks[u]; f.l != r.l || f.m != r.m || fold.Mult(u) != ref.Mult(u) {
			return fmt.Sprintf("node %d state diverged: L %v vs %v, M %v vs %v, mult %v vs %v",
				u, f.l, r.l, f.m, r.m, fold.Mult(u), ref.Mult(u))
		}
	}
	return ""
}

// missesOf returns the messaging layer's miss count, or 0 on other layers.
func missesOf(a *Algorithm) uint64 {
	if m, ok := a.rt.Est.(*estimate.Messaging); ok {
		return m.Misses
	}
	return 0
}

// TestTriggerSinglePassMatchesReferenceOnRandomClocks compares the two
// evaluation paths on the same live instance across random clock
// configurations (the deterministic Amplify policy makes consecutive
// Estimate calls repeatable, so both paths see identical inputs).
func TestTriggerSinglePassMatchesReferenceOnRandomClocks(t *testing.T) {
	edges := topo.Ring(7)
	h := triggerHarness(t, 7, edges, testParams(), 11, harnessSetup{policy: estimate.Amplify{}}, false)
	ref := &refAlgo{Algorithm: h.algo}
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
			fastFold, slowFold := h.algo.evalTriggers(u, 0, &c)
			fastRef, slowRef := ref.evalTriggersRef(u, &c)
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
			FastWitness1(ahead, kappa, eps)},
		{"fastBlocked", a.fastBlockedLevel(behind, kappa, eps, tau, top),
			scanLevel(top, func(s int) bool { return behind > float64(s)*kappa+2*mu*tau+eps }),
			FastBlocked1(behind, kappa, eps, tau, mu)},
		{"slowWitness", slowWitnessLevel(behind, kappa, delta, eps, top),
			scanLevel(top, func(s int) bool { return behind >= (float64(s)+0.5)*kappa-delta-eps }),
			SlowWitness1(behind, kappa, delta, eps)},
		{"slowBlocked", a.slowBlockedLevel(ahead, kappa, delta, eps, tau, top),
			scanLevel(top, func(s int) bool {
				return ahead > (float64(s)+0.5)*kappa+delta+eps+mu*(1+rho)*tau
			}),
			SlowBlocked1(ahead, kappa, delta, eps, tau, mu, rho)},
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
