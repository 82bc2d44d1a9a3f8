package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// GeneralizedPareto is the Generalized Pareto inter-arrival distribution
// the paper uses to model the Facebook trace (eq. 24):
//
//	F(t) = 1 - (1 + ξ·λ·t / (1-ξ))^{-1/ξ},   0 <= ξ < 1,
//
// i.e. shape ξ (the "burst degree") and scale σ = (1-ξ)/λ so that the
// mean inter-arrival gap is exactly 1/λ. ξ = 0 degenerates to the
// exponential distribution with rate λ (Poisson arrivals); larger ξ gives
// a heavier tail and burstier arrivals.
type GeneralizedPareto struct {
	// Xi is the shape ("burst degree"), 0 <= Xi < 1 so the mean exists
	// and equals 1/Lambda.
	Xi float64
	// Lambda is the mean arrival rate (1 / mean gap).
	Lambda float64
}

var _ Interarrival = GeneralizedPareto{}

// NewGeneralizedPareto validates 0 <= xi < 1 and lambda > 0.
func NewGeneralizedPareto(xi, lambda float64) (GeneralizedPareto, error) {
	if xi < 0 || xi >= 1 || math.IsNaN(xi) {
		return GeneralizedPareto{}, fmt.Errorf("dist: pareto shape xi=%v must be in [0, 1)", xi)
	}
	if !(lambda > 0) {
		return GeneralizedPareto{}, fmt.Errorf("dist: pareto rate lambda=%v must be positive", lambda)
	}
	return GeneralizedPareto{Xi: xi, Lambda: lambda}, nil
}

// scale returns σ = (1-ξ)/λ (σ = 1/λ when ξ = 0).
func (g GeneralizedPareto) scale() float64 { return (1 - g.Xi) / g.Lambda }

// Sample inverts the CDF: t = σ/ξ·((1-u)^{-ξ} - 1), or exponential when
// ξ = 0.
func (g GeneralizedPareto) Sample(rng *rand.Rand) float64 {
	if g.Xi == 0 {
		return rng.ExpFloat64() / g.Lambda
	}
	u := rng.Float64() // uniform in [0, 1)
	return g.scale() / g.Xi * (math.Pow(1-u, -g.Xi) - 1)
}

// Mean returns 1/Lambda.
func (g GeneralizedPareto) Mean() float64 { return 1 / g.Lambda }

// CDF evaluates the paper's eq. 24.
func (g GeneralizedPareto) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if g.Xi == 0 {
		return 1 - math.Exp(-g.Lambda*t)
	}
	return 1 - math.Pow(1+g.Xi*t/g.scale(), -1/g.Xi)
}

// Survival evaluates 1 - CDF(t) without cancellation for large t.
func (g GeneralizedPareto) Survival(t float64) float64 {
	if t <= 0 {
		return 1
	}
	if g.Xi == 0 {
		return math.Exp(-g.Lambda * t)
	}
	return math.Pow(1+g.Xi*t/g.scale(), -1/g.Xi)
}

// LaplaceTransform has no closed form for ξ > 0; it is evaluated by
// numerical integration of the survival function (exact-to-double
// truncation, see laplaceFromSurvival). ξ = 0 uses the exponential
// closed form.
func (g GeneralizedPareto) LaplaceTransform(s float64) float64 {
	if s <= 0 {
		return 1
	}
	if g.Xi == 0 {
		return g.Lambda / (g.Lambda + s)
	}
	return laplaceFromSurvival(g.Survival, s)
}
