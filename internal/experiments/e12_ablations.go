package experiments

import (
	gradsync "repro"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/estimate"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/topo"
	"repro/internal/transport"
)

// E12Ablations demonstrates that two load-bearing design choices of the
// algorithm are necessary, by breaking each and observing the failure the
// paper's lemmas predict:
//
//  1. Insertion duration (eq. 10): with a much smaller I, a new edge joins
//     all neighbor-set levels while still carrying ≫ its stable budget, so
//     the "fully inserted" gradient guarantee (Thm 5.22) is violated; with
//     the paper's I it is not.
//  2. The δ_e slack range (0, κ/2−2ε−2µτ): pushing δ above its upper end
//     voids the Lemma 5.3 proof, and the fast and slow triggers do fire
//     simultaneously under stress.
func E12Ablations(spec Spec) *Result {
	r := newResult("E12", "Ablations: insertion duration (Thm 5.22) and δ range (Lemma 5.3) are necessary")

	// --- Part 1: insertion-duration sweep on the merge scenario. ---
	n := 12
	offset := 12.0
	factors := []struct {
		name string
		algo gradsync.Algo
	}{
		{"I=0.2·G̃/µ (too fast)", gradsync.AOPTCustomInsertion(0.2)},
		{"I=2·G̃/µ", gradsync.AOPTCustomInsertion(2)},
		{"paper eq.(10) ≈ 22·G̃/µ·…", gradsync.AOPT()},
	}
	r.Table = metrics.NewTable("merge edge under different insertion durations (n=12, offset 12)",
		"insertion", "worstPairRatio", "violates")
	var ratios []float64
	for _, f := range factors {
		worst := worstPairRatioDuringMerge(n, offset, f.algo, spec.SeedFor(0))
		r.Table.AddRow(f.name, worst, worst > 1)
		ratios = append(ratios, worst)
	}
	if len(ratios) == len(factors) {
		r.assert(ratios[0] > 1,
			"cutting I to 0.2·G̃/µ should violate the fully-inserted gradient guarantee (got ratio %.3f)", ratios[0])
		r.assert(ratios[len(ratios)-1] <= 1,
			"paper insertion duration must keep the guarantee (got ratio %.3f)", ratios[len(ratios)-1])
		r.assert(ratios[0] > ratios[len(ratios)-1], "violation did not decrease with longer insertion")
	}

	// --- Part 2: δ outside its legal range breaks trigger exclusion. ---
	conflictsAt := func(deltaFraction float64) uint64 {
		rt, err := runner.New(runner.Config{
			N: 6, Tick: 0.02, BeaconInterval: 0.25,
			Drift: drift.TwoGroup{Rho: 0.1 / 60, Split: 3},
			Delay: transport.RandomDelay{},
			Seed:  spec.SeedFor(1),
		})
		if err != nil {
			r.failf("runtime: %v", err)
			return 0
		}
		for _, e := range topo.Line(6) {
			if err := rt.Dyn.DeclareLink(e.U, e.V, topo.LinkParams{Eps: 0.2, Tau: 0.1, Delay: 0.1, Uncertainty: 0.05}); err != nil {
				r.failf("declare: %v", err)
				return 0
			}
		}
		algo := core.MustNew(core.Params{Rho: 0.1 / 60, Mu: 0.1, GTilde: 8})
		algo.OverrideDeltaFraction(deltaFraction)
		rt.SetEstimator(estimate.NewOracle(rt.Dyn, func(u int) float64 { return algo.Logical(u) },
			estimate.Amplify{}))
		rt.Attach(algo)
		// Stress: a legal but taut ramp that keeps triggers near their
		// thresholds while the skew drains.
		for u := 0; u < 6; u++ {
			algo.SetLogical(u, float64(u)*1.3)
		}
		for _, e := range topo.Line(6) {
			if err := rt.Dyn.AppearInstant(e.U, e.V); err != nil {
				r.failf("appear: %v", err)
				return 0
			}
		}
		if err := rt.Start(); err != nil {
			r.failf("start: %v", err)
			return 0
		}
		rt.Run(120)
		return algo.TriggerConflicts
	}
	legal := conflictsAt(0.5)  // midpoint of the legal range
	broken := conflictsAt(4.0) // 4× the legal range width
	r.Table2 = metrics.NewTable("trigger conflicts vs δ placement (Lemma 5.3)",
		"δ position", "conflicting node-ticks")
	r.Table2.AddRow("0.5 × legal width (paper)", legal)
	r.Table2.AddRow("4.0 × legal width (broken)", broken)
	r.assert(legal == 0, "conflicts with legal δ: %d (Lemma 5.3 must hold)", legal)
	r.assert(broken > 0, "expected trigger conflicts with δ outside its range; the slack bound appears vacuous")
	r.Notef("both failure modes match the lemmas: early insertion breaks the stable-edge guarantee, oversized δ breaks FC/SC exclusivity")
	return r
}

// worstPairRatioDuringMerge reruns the merge scenario sampling the pairwise
// gradient check (which includes the new edge once it is fully inserted).
func worstPairRatioDuringMerge(n int, offset float64, algo gradsync.Algo, seed int64) float64 {
	k := n / 2
	net := gradsync.MustNew(gradsync.Config{
		Topology:      splitLineTopology(n),
		Algorithm:     algo,
		InitialClocks: offsetHalves(n, offset),
		Scenario:      &scenario.PartitionHeal{HealAt: 5, Bridges: []scenario.Pair{{k - 1, k}}},
		Seed:          seed,
	})
	worst := 0.0
	net.Every(1, func(float64) {
		if ratio, _, _ := net.Core().Snapshot().PairSkewBoundCheck(net.GTilde(), net.Sigma()); ratio > worst {
			worst = ratio
		}
	})
	net.RunFor(5 + offset/0.04 + 80)
	return worst
}
