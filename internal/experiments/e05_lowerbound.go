package experiments

import (
	gradsync "repro"
	"repro/internal/baselines"
	"repro/internal/metrics"
)

// E05LowerBound reproduces Theorem 8.1: a non-trivial gradient algorithm
// cannot reduce the skew over a newly appeared edge to its stable bound in
// o(D) time. Operationally: in the merge scenario the skew on the new edge
// is Ω(D), and any algorithm whose logical clocks respect the rate envelope
// [1−ρ, (1+ρ)(1+µ)] needs at least (skew−bound)/(β−α) = Ω(D) time — we
// verify the persistence window on AOPT and BlockSync, and contrast with
// max-propagation, which "stabilizes" instantly only because it abandons
// the rate envelope (discontinuous jumps) and pays Ω(D) local skew on old
// edges for it (E03).
func E05LowerBound(spec Spec) *Result {
	r := newResult("E05", "Ω(D) stabilization lower bound for envelope-respecting algorithms (Theorem 8.1)")
	ns := sizes(spec, []int{8, 16}, []int{8, 16, 32, 48})
	r.Table = metrics.NewTable("persistence of Ω(D) skew on the merge edge",
		"n", "offset", "tMin", "aopt tStab", "block tStab", "maxsync tStab", "maxsync jumps")

	const (
		rho = 0.1 / 60
		mu  = 0.1
	)
	rateGap := (1+rho)*(1+mu) - (1 - rho)
	var tMins, aopts []float64
	for _, n := range ns {
		offset := 1.0 * float64(n) // well above the one-hop gradient threshold
		horizon := offset/0.04 + 80

		aopt, err := runMerge(n, offset, gradsync.AOPT(), spec.SeedFor(int64(n)), horizon)
		if err != nil {
			r.failf("n=%d aopt: %v", n, err)
			continue
		}
		block, err := runMerge(n, offset, gradsync.BlockSyncAlgo(2), spec.SeedFor(int64(n)), horizon)
		if err != nil {
			r.failf("n=%d block: %v", n, err)
			continue
		}
		maxs, err := runMerge(n, offset, gradsync.MaxSyncAlgo(), spec.SeedFor(int64(n)), horizon)
		if err != nil {
			r.failf("n=%d maxsync: %v", n, err)
			continue
		}
		threshold := aopt.net.GradientBoundHops(1)
		tMin := (offset - threshold) / rateGap
		if tMin < 0 {
			tMin = 0
		}
		ta := aopt.stabilizedAt(threshold, 20)
		tb := block.stabilizedAt(threshold, 20)
		tm := maxs.stabilizedAt(threshold, 20)
		jumps := maxs.net.Runtime().Algo().(*baselines.MaxSync).Jumps
		r.Table.AddRow(n, offset, tMin, ta, tb, tm, jumps)

		// Both envelope-respecting algorithms obey the lower bound; the
		// jumping baseline beats it (that is the §8 trade-off).
		r.assert(ta < 0 || ta >= tMin-1, "n=%d: AOPT beat the envelope lower bound (%.1f < %.1f)", n, ta, tMin)
		r.assert(tb < 0 || tb >= tMin-1, "n=%d: BlockSync beat the envelope lower bound (%.1f < %.1f)", n, tb, tMin)
		if tMin > 5 {
			r.assert(tm >= 0 && tm < tMin/2,
				"n=%d: max-propagation should stabilize the edge near-instantly by jumping (got %.1f vs tMin %.1f)",
				n, tm, tMin)
			r.assert(jumps > 0, "n=%d: max-propagation stabilized the edge without a single jump", n)
		}
		tMins = append(tMins, tMin)
		if ta >= 0 {
			aopts = append(aopts, ta)
		}
	}
	if len(aopts) == len(tMins) && len(aopts) >= 2 && tMins[0] > 1 {
		first := aopts[0] / tMins[0]
		last := aopts[len(aopts)-1] / tMins[len(tMins)-1]
		r.assert(last < 4*first+2,
			"AOPT/lower-bound ratio diverges with D (%.2f → %.2f); should stay Θ(1) for optimal stabilization",
			first, last)
		r.Notef("AOPT stabilizes within a constant factor of the universal envelope bound: ratios %.2f → %.2f", first, last)
	}
	r.Notef("max-propagation evades the bound only by violating the logical rate envelope (jump discontinuities), paying Ω(D) local skew (E03)")
	return r
}
