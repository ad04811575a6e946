package experiments

import (
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

// E09Weighted reproduces the weighted-graph generality of the algorithm
// (Definitions 5.8–5.13, Lemma 5.14): edge weights κ_e derive from
// heterogeneous per-edge uncertainties, the skew bound is a function of
// path *weight*, and heavier (more uncertain) edges are legitimately
// allowed — and observed — to carry more skew than light ones.
//
// Workload: a line whose edges alternate between a precise link (small ε)
// and a coarse link (large ε), initialized to a per-edge legal ramp, under
// two-group drift. Uses the internal runtime directly since the public
// facade intentionally keeps uniform links.
func E09Weighted(spec Spec) *Result {
	r := newResult("E09", "Heterogeneous edge weights: skew budget proportional to κ_e (Defs 5.8–5.13)")
	const (
		n      = 10
		mu     = 0.1
		rho    = 0.1 / 60
		gTilde = 8.0
	)
	light := topo.LinkParams{Eps: 0.1, Tau: 0.05, Delay: 0.1, Uncertainty: 0.05}
	heavy := topo.LinkParams{Eps: 0.45, Tau: 0.2, Delay: 0.1, Uncertainty: 0.05}

	rt, err := runner.New(runner.Config{
		N: n, Tick: 0.02, BeaconInterval: 0.25,
		Drift: drift.TwoGroup{Rho: rho, Split: n / 2},
		Delay: transport.RandomDelay{},
		Seed:  spec.SeedFor(0),
	})
	if err != nil {
		r.failf("runtime: %v", err)
		return r
	}
	isHeavy := func(u int) bool { return u%2 == 1 }
	for u := 0; u+1 < n; u++ {
		p := light
		if isHeavy(u) {
			p = heavy
		}
		if err := rt.Dyn.DeclareLink(u, u+1, p); err != nil {
			r.failf("declare: %v", err)
			return r
		}
	}
	algo := core.MustNew(core.Params{Rho: rho, Mu: mu, GTilde: gTilde})
	rt.SetEstimator(estimate.NewOracle(rt.Dyn, func(u int) float64 { return algo.Logical(u) },
		estimate.NewPerNodeRandomError(n, sim.NewRNG(spec.SeedFor(1)))))
	rt.Attach(algo)

	// Legal initial ramp: each edge starts at 60% of twice its weight
	// (inside every level-s budget for s ≥ 2).
	initStep := func(u int) float64 {
		p := light
		if isHeavy(u) {
			p = heavy
		}
		kappa := 1.1 * 4 * (p.Eps + mu*p.Tau)
		return 0.6 * 2 * kappa
	}
	acc := 0.0
	for u := 0; u < n; u++ {
		algo.SetLogical(u, acc)
		if u+1 < n {
			acc += initStep(u)
		}
	}
	for u := 0; u+1 < n; u++ {
		if err := rt.Dyn.AppearInstant(u, u+1); err != nil {
			r.failf("appear: %v", err)
			return r
		}
	}
	if err := rt.Start(); err != nil {
		r.failf("start: %v", err)
		return r
	}

	horizon := 300.0
	if spec.Quick {
		horizon = 120
	}
	maxLight, maxHeavy, worstRatio := 0.0, 0.0, 0.0
	sigma := algo.Params().Sigma()
	rt.Engine.NewTicker(1, 1, func(t sim.Time, _ float64) {
		for u := 0; u+1 < n; u++ {
			s := algo.Logical(u+1) - algo.Logical(u)
			if s < 0 {
				s = -s
			}
			if isHeavy(u) {
				if s > maxHeavy {
					maxHeavy = s
				}
			} else if s > maxLight {
				maxLight = s
			}
		}
		if ratio, _, _ := algo.Snapshot().PairSkewBoundCheck(gTilde, sigma); ratio > worstRatio {
			worstRatio = ratio
		}
	})
	rt.Run(horizon)

	kLight := algo.EdgeKappa(0, 1)
	kHeavy := algo.EdgeKappa(1, 2)
	r.Table = metrics.NewTable("alternating light/heavy links (line n=10)",
		"class", "ε", "κ_e", "maxEdgeSkew", "skew/κ")
	r.Table.AddRow("light", light.Eps, kLight, maxLight, maxLight/kLight)
	r.Table.AddRow("heavy", heavy.Eps, kHeavy, maxHeavy, maxHeavy/kHeavy)

	r.assert(kHeavy > 2*kLight, "weights did not separate: κ_heavy=%.3f vs κ_light=%.3f", kHeavy, kLight)
	r.assert(maxHeavy > maxLight,
		"heavy edges (κ=%.2f) did not carry more skew (%.3f) than light ones (%.3f)", kHeavy, maxHeavy, maxLight)
	r.assert(worstRatio <= 1.0, "weighted pairwise gradient check violated: ratio %.3f", worstRatio)
	r.assert(algo.TriggerConflicts == 0, "trigger conflicts: %d", algo.TriggerConflicts)
	r.Notef("worst weighted pair ratio %.3f (≤ 1 required); per-κ normalized skews are comparable across classes", worstRatio)
	return r
}
