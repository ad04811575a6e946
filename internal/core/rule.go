package core

// The per-node rule, written once: the level-1 trigger inequalities
// (Definitions 4.5 and 4.6), Listing 3's mode switch, the clock step and
// max-estimate flooding (Condition 4.3). Algorithm runs them for AOPT;
// baselines.BlockSync and the live node run them for the single-threshold
// algorithm of [11], which is this rule at level 1 with κ = S and δ = S/20.
// Each inlines into the hot loops and keeps the operand order the goldens
// pin.

// FastWitness1 is Definition 4.5's witness at s = 1: est−L_u ≥ κ − ε.
func FastWitness1(ahead, kappa, eps float64) bool { return ahead >= kappa-eps }

// FastBlocked1 is Definition 4.5's blocker at s = 1: L_u−est > κ + 2µτ + ε.
func FastBlocked1(behind, kappa, eps, tau, mu float64) bool {
	return behind > kappa+2*mu*tau+eps
}

// SlowWitness1 is Definition 4.6's witness at s = 1: L_u−est ≥ 1.5κ − δ − ε.
func SlowWitness1(behind, kappa, delta, eps float64) bool {
	return behind >= 1.5*kappa-delta-eps
}

// SlowBlocked1 is Definition 4.6's blocker at s = 1:
// est−L_u > 1.5κ + δ + ε + µ(1+ρ)τ.
func SlowBlocked1(ahead, kappa, delta, eps, tau, mu, rho float64) bool {
	return ahead > 1.5*kappa+delta+eps+mu*(1+rho)*tau
}

// NextMode is Listing 3: the next rate multiplier of a node with clocks
// l = L_u, m = M_u and multiplier mult, and whether its tick counts as
// fast. The count is returned, not read off the multiplier, because the two
// disagree when µ ≤ 0.
func NextMode(fast, slow bool, l, m, mult, mu, iota float64) (float64, bool) {
	switch {
	case slow:
		return 1, false
	case fast:
		return 1 + mu, true
	case l >= m-1e-12: // slow max-estimate trigger: L_u = M_u
		return 1, false
	case l <= m-iota: // fast max-estimate trigger
		return 1 + mu, true
	}
	return mult, mult > 1 // free region: keep the current mode
}

// Integrate advances L_u and M_u by one tick of hardware increment dh. M_u
// follows L_u when caught up and otherwise advances at mRate = (1−ρ)/(1+ρ)
// times the hardware rate; mRate is a parameter so a loop divides once.
func Integrate(l, m, mult, dh, mRate float64) (float64, float64) {
	l += mult * dh
	if m <= l {
		return l, l
	}
	m += mRate * dh
	if m < l {
		m = l
	}
	return l, m
}

// FloodCandidate is the max estimate a beacon carrying sent lets its
// receiver adopt: the certified minimum transit credited at the minimum
// logical rate keeps it below the network maximum (Condition 4.3). One
// tick is taken off the credit because clocks grow in discrete steps, so
// the continuous-time argument covers only fully elapsed ticks.
func FloodCandidate(sent, minTransit, tick, rho float64) float64 {
	credit := minTransit - tick
	if credit < 0 {
		credit = 0
	}
	return sent + (1-rho)*credit
}
