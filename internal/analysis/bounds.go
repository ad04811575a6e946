// Package analysis collects the closed-form quantities of the paper —
// parameter constraints (eqs. 7–9, 12), insertion durations (eqs. 10–11),
// insertion times (Listing 2), gradient sequences (Definitions 5.7, 5.19)
// and the resulting skew bounds (Lemma 5.14, Theorem 5.22, Corollary 7.10) —
// together with checkers that evaluate the legality definitions on system
// snapshots. The synchronization algorithm and the experiments both build
// on these functions, so the formulas exist in exactly one place.
package analysis

import (
	"fmt"
	"math"
)

// InfLevel represents "inserted on all levels" (the limit T∞ of Listing 2
// has been passed). It is large enough to exceed any level the triggers can
// meaningfully evaluate.
const InfLevel = math.MaxInt32

// Sigma returns the logarithm base σ = (1−ρ)µ/(2ρ) of eq. (8).
func Sigma(mu, rho float64) float64 {
	if rho <= 0 {
		return math.Inf(1)
	}
	return (1 - rho) * mu / (2 * rho)
}

// ValidateRates checks the constraints the paper places on ρ and µ:
// ρ ∈ (0,1), µ ≤ 1/10 (eq. 7) and σ > 1 (below eq. 8). Each check is
// written as the negation of the legal range, so NaN fails it.
func ValidateRates(mu, rho float64) error {
	switch {
	case !(rho > 0 && rho < 1):
		return fmt.Errorf("analysis: ρ must be in (0,1), got %v", rho)
	case !(mu > 0 && mu <= 0.1):
		return fmt.Errorf("analysis: µ must be in (0, 1/10], got %v (eq. 7)", mu)
	case !(Sigma(mu, rho) > 1):
		return fmt.Errorf("analysis: σ = (1−ρ)µ/(2ρ) = %v must exceed 1; increase µ or decrease ρ",
			Sigma(mu, rho))
	}
	return nil
}

// MinKappa returns the smallest legal edge weight 4(ε+µτ) of eq. (9); actual
// weights must be strictly larger.
func MinKappa(eps, tau, mu float64) float64 {
	return 4 * (eps + mu*tau)
}

// Kappa returns a legal κ_e for the edge: factor times the eq. (9) minimum.
// factor must be > 1.
func Kappa(eps, tau, mu, factor float64) float64 {
	return factor * MinKappa(eps, tau, mu)
}

// DeltaRange returns the open interval (0, κ/2 − 2ε − 2µτ) from which the
// slow-trigger slack δ_e must be drawn (Section 4.3.3). The width is
// positive whenever κ satisfies eq. (9).
func DeltaRange(kappa, eps, tau, mu float64) (lo, hi float64) {
	return 0, kappa/2 - 2*eps - 2*mu*tau
}

// BMin returns the smallest B allowed by eq. (12): 320·2⁷/(1−ρ)².
func BMin(rho float64) float64 {
	return 320 * 128 / ((1 - rho) * (1 - rho))
}

// BMax returns the largest B allowed by eq. (12): µ/(2ρ).
func BMax(mu, rho float64) float64 {
	return mu / (2 * rho)
}

// InsertionDurationStatic computes I(G̃) of eq. (10), used when the global
// skew estimate is a fixed constant:
//
//	I = (20(1+µ)/(1−ρ) + 56µ + (8+56µ)/σ) · G̃/µ.
func InsertionDurationStatic(gTilde, mu, rho float64) float64 {
	sigma := Sigma(mu, rho)
	return (20*(1+mu)/(1-rho) + 56*mu + (8+56*mu)/sigma) * gTilde / mu
}

// InsertionDurationDynamic computes I(G̃) of eq. (11), used with dynamic
// per-node global skew estimates (Section 7):
//
//	ℓ = (1+ρ)(1+µ)(T + 2τ) + 8B·G̃/µ,  I = 2^⌈log₂ ℓ⌉.
//
// The power-of-two rounding makes insertion grids of different estimates
// nest, which Lemma 7.1's separation argument requires.
func InsertionDurationDynamic(gTilde, mu, rho, b, delay, tau float64) float64 {
	ell := (1+rho)*(1+mu)*(delay+2*tau) + 8*b*gTilde/mu
	return math.Exp2(math.Ceil(math.Log2(ell)))
}

// InsertionBase returns T₀ of Listing 2: the smallest multiple of I that is
// at least lIns.
func InsertionBase(lIns, insDur float64) float64 {
	if insDur <= 0 {
		return lIns
	}
	return math.Ceil(lIns/insDur) * insDur
}

// InsertionTime returns T_s = T₀ + (1 − 2^{1−s})·I for level s ≥ 1
// (Listing 2). T_1 = T₀ and T_s → T₀ + I. This is the schedule of the
// static-estimate algorithm (§4–5; Lemma 5.23 uses T_{s+1}−T_s = I/2^s).
func InsertionTime(t0, insDur float64, s int) float64 {
	if s < 1 {
		return t0
	}
	return t0 + (1-math.Exp2(float64(1-s)))*insDur
}

// InsertionTimeDynamic returns T_s = T₀ + (1 − 1/(2^{s+1}−1))·I, the §7
// schedule used with dynamic global skew estimates. Its offsets are not
// dyadic fractions of I, which is what makes the Lemma 7.1 cross-grid
// separation argument work: level times of different edges on nesting
// power-of-two grids can never collide unless level and time both match.
func InsertionTimeDynamic(t0, insDur float64, s int) float64 {
	if s < 1 {
		return t0
	}
	return t0 + (1-1/(math.Exp2(float64(s+1))-1))*insDur
}

// LevelAtDynamic inverts InsertionTimeDynamic: the highest level s with
// T_s ≤ l. It returns 0 before T_1 = T₀ + (2/3)·I and InfLevel from T₀+I.
func LevelAtDynamic(l, t0, insDur float64) int {
	if insDur <= 0 {
		if l >= t0 {
			return InfLevel
		}
		return 0
	}
	if l >= t0+insDur {
		return InfLevel
	}
	x := (l - t0) / insDur
	if x < 0 {
		return 0
	}
	// 1 − 1/(2^{s+1}−1) ≤ x  ⇔  s ≤ log₂(1/(1−x) + 1) − 1.
	s := int(math.Floor(math.Log2(1/(1-x)+1) - 1))
	for s >= 1 && InsertionTimeDynamic(t0, insDur, s) > l {
		s--
	}
	for InsertionTimeDynamic(t0, insDur, s+1) <= l {
		s++
	}
	if s < 0 {
		s = 0
	}
	return s
}

// LevelAt returns the highest level s with T_s ≤ l, i.e. how many neighbor
// sets N^s the edge has been added to by the time the local logical clock
// reads l. It returns 0 before T₀ and InfLevel from T₀+I on.
func LevelAt(l, t0, insDur float64) int {
	if l < t0 {
		return 0
	}
	if l >= t0+insDur || insDur <= 0 {
		return InfLevel
	}
	x := (l - t0) / insDur // in [0, 1)
	s := int(math.Floor(1 - math.Log2(1-x)))
	// Fix up floating point at the boundaries: ensure T_s ≤ l < T_{s+1}.
	for s > 1 && InsertionTime(t0, insDur, s) > l {
		s--
	}
	for InsertionTime(t0, insDur, s+1) <= l {
		s++
	}
	if s < 1 {
		s = 1
	}
	return s
}

// GradientSeq is a gradient sequence C (Definition 5.7): non-increasing
// values C_s bounding 2·Ψˢ for each level.
type GradientSeq func(s int) float64

// StandardSeq returns the stabilized-state sequence C_s = 2Ĝ/σ^max(s−2,0)
// used in Theorem 5.22 (all levels "switched on").
func StandardSeq(gHat, sigma float64) GradientSeq {
	return func(s int) float64 {
		e := s - 2
		if e < 0 {
			e = 0
		}
		return 2 * gHat / math.Pow(sigma, float64(e))
	}
}

// StableLevel returns s(p) = max{2 + ⌈log_σ(4Ĝ/κ_p)⌉, 1} of Corollary 7.10.
func StableLevel(gHat, sigma, kappaP float64) int {
	if kappaP <= 0 {
		return InfLevel
	}
	s := 2 + int(math.Ceil(logBase(sigma, 4*gHat/kappaP)))
	if s < 1 {
		s = 1
	}
	return s
}

// GradientSkewBound returns the stable gradient skew bound (s(p)+1)·κ_p of
// Corollary 7.10 for a path of weight κ_p under global skew bound Ĝ. This
// is the Θ(d·log(D/d)) guarantee in its exact constant form.
func GradientSkewBound(gHat, sigma, kappaP float64) float64 {
	if kappaP <= 0 {
		return 0
	}
	return float64(StableLevel(gHat, sigma, kappaP)+1) * kappaP
}

// LegalitySkewBound returns the Lemma 5.14 bound (s+1/2)κ_p + C_s/2 for an
// explicit level s, used when verifying legality level by level.
func LegalitySkewBound(seq GradientSeq, s int, kappaP float64) float64 {
	return (float64(s)+0.5)*kappaP + seq(s)/2
}

// StabilizationTimeBound returns the Theorem 5.22 bound on the time an edge
// needs to be continuously present before the gradient guarantee applies:
// (2I + G̃ + (1+ρ)(1+µ)T)/(1−ρ).
func StabilizationTimeBound(gTilde, mu, rho, delay float64) float64 {
	ins := InsertionDurationStatic(gTilde, mu, rho)
	return (2*ins + gTilde + (1+rho)*(1+mu)*delay) / (1 - rho)
}

// GlobalDecayRate returns µ(1−ρ)−2ρ, the minimum rate at which the global
// skew shrinks while it exceeds D(t)+ι (Theorem 5.6 II). It is positive for
// all valid parameter choices.
func GlobalDecayRate(mu, rho float64) float64 {
	return mu*(1-rho) - 2*rho
}

func logBase(base, x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	if math.IsInf(base, 1) {
		return 0
	}
	return math.Log(x) / math.Log(base)
}

// LogBase exposes log_base(x) for experiment reporting.
func LogBase(base, x float64) float64 { return logBase(base, x) }
