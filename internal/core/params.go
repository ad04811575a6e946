// Package core implements the paper's primary contribution: the dynamic
// gradient clock synchronization algorithm AOPT of Section 4, with the
// fast/slow mode triggers (Definitions 4.5–4.7), the leveled neighbor sets
// realized through per-edge insertion times (Listings 1–2), the max-estimate
// flooding (Condition 4.3) and the mode selection logic (Listing 3).
package core

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// InsertionMode selects how the insertion duration I(G̃) is computed.
type InsertionMode int

const (
	// InsertStatic uses eq. (10); correct when the global skew estimate is a
	// single constant G̃ known to all nodes (the Sections 4–6 setting).
	InsertStatic InsertionMode = iota + 1
	// InsertDynamic uses eq. (11) with the power-of-two grid; correct for
	// node- and time-dependent estimates G̃_u(t) (the Section 7 setting).
	InsertDynamic
	// InsertCustom uses I = Factor·G̃/µ; for ablation experiments only.
	InsertCustom
	// InsertDecaying is the simpler strategy discussed in §5.5 (from [16]):
	// a new edge joins all levels immediately, but with a large initial
	// weight κ₀ ≈ G̃ that decays linearly (in logical time) to the final
	// κ_e. The gradient budget of a path through the edge shrinks smoothly
	// instead of level by level.
	InsertDecaying
)

// SkewEstimator supplies the global skew estimates G̃_u(t) of eq. (5). The
// paper requires G̃_u(t) ≥ G(t) at all times but does not construct an
// estimator; the implementation here is a margin-scaled oracle, and the
// static constant of eq. (6) is Params.GTilde (see DESIGN.md on
// substitutions).
type SkewEstimator interface {
	GTilde(u int, t sim.Time) float64
}

// OracleSkew returns Margin·G(t) + Floor using ground-truth clock access;
// with Margin ≥ 1 it satisfies validity (eq. 5) pointwise. Spread must
// return the current true global skew max L − min L.
type OracleSkew struct {
	Spread func() float64
	Margin float64
	Floor  float64
}

// GTilde implements SkewEstimator.
func (o OracleSkew) GTilde(int, sim.Time) float64 {
	return o.Margin*o.Spread() + o.Floor
}

// Params configures the algorithm. Zero values get defaults in Validate.
type Params struct {
	// Rho is the hardware clock drift bound ρ ∈ (0,1).
	Rho float64
	// Mu is the fast-mode rate boost µ ∈ (0, 1/10] (eq. 7) with σ > 1.
	Mu float64
	// KappaFactor scales edge weights above the eq. (9) minimum:
	// κ_e = KappaFactor·4(ε_e + µτ_e). Must be > 1. Default 1.1.
	KappaFactor float64
	// GTilde is the static global skew estimate G̃ (eq. 6); required unless
	// Skew is set.
	GTilde float64
	// Skew optionally supplies dynamic estimates G̃_u(t) (Section 7).
	Skew SkewEstimator
	// Insertion selects the I(G̃) formula. Default InsertStatic.
	Insertion InsertionMode
	// InsertionFactor is used by InsertCustom: I = InsertionFactor·G̃/µ.
	InsertionFactor float64
	// B is the eq. (12) constant for InsertDynamic; 0 means BMin(ρ).
	B float64
	// decayRate sets the κ decay speed of InsertDecaying as a fraction of
	// µ per logical time unit. validate defaults it to 0.1 (insertion
	// completes within ≈ 10·G̃/µ logical time, comparable to eq. (10));
	// only package tests set it, to finish decays within short runs.
	decayRate float64
}

// Iota is the ι separation of the max-estimate triggers (Definitions 4.4
// and 4.7) that A^OPT and the baselines pass to NextMode.
const Iota = 0.05

// validate applies the defaults and checks the parameters. Each float check
// is written as the negation of the legal range, so NaN fails it.
func (p *Params) validate() error {
	if err := analysis.ValidateRates(p.Mu, p.Rho); err != nil {
		return err
	}
	inf := math.Inf(1)
	if p.KappaFactor == 0 {
		p.KappaFactor = 1.1
	}
	if !(p.KappaFactor > 1 && p.KappaFactor < inf) {
		return fmt.Errorf("core: KappaFactor must be finite and exceed 1 (eq. 9 is strict), got %v", p.KappaFactor)
	}
	if p.Insertion == 0 {
		p.Insertion = InsertStatic
	}
	if p.Skew == nil && !(p.GTilde > 0 && p.GTilde < inf) {
		return fmt.Errorf("core: GTilde must be positive and finite when no dynamic skew estimator is set, got %v", p.GTilde)
	}
	if p.Insertion == InsertCustom && !(p.InsertionFactor > 0 && p.InsertionFactor < inf) {
		return fmt.Errorf("core: InsertCustom requires a positive finite InsertionFactor, got %v", p.InsertionFactor)
	}
	if p.Insertion == InsertDynamic && p.B == 0 {
		p.B = analysis.BMin(p.Rho)
	}
	if p.decayRate == 0 {
		p.decayRate = 0.1
	}
	return nil
}

// Sigma returns the gradient logarithm base σ for these parameters.
func (p Params) Sigma() float64 { return analysis.Sigma(p.Mu, p.Rho) }
