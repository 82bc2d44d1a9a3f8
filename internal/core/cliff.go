package core

import (
	"fmt"
	"math"

	"memqlat/internal/dist"
	"memqlat/internal/queueing"
)

// CliffMethod selects how the latency cliff point is operationalized.
// Proposition 2 proves the cliff utilization depends only on the burst
// degree ξ; the paper does not pin down a formula, so we provide two
// complementary detectors (see DESIGN.md §4.2).
type CliffMethod int

const (
	// CliffDeltaThreshold (used for Table 4) reports the
	// utilization at which the GI/M/1 root δ reaches a calibrated level
	// δ* (0.77, chosen so that ξ=0 reproduces the paper's 77%: for
	// Poisson arrivals δ = ρ exactly).
	CliffDeltaThreshold CliffMethod = iota + 1
	// CliffSlope reports the utilization at which the relative latency
	// sensitivity d ln E[T_S]/dρ reaches a calibrated threshold s*
	// (1/(1−0.77) ≈ 4.35 per unit ρ, i.e. a 1 pp utilization increase
	// raising latency by >4.3%; the calibration again anchors ξ=0 at
	// the paper's 77%). A cross-check for the δ-threshold detector.
	CliffSlope
)

const (
	// deltaStar calibrates CliffDeltaThreshold to the paper's ξ=0 row.
	deltaStar = 0.77
	// slopeStar calibrates CliffSlope to the paper's ξ=0 row: for M/M/1,
	// d ln(1/(1−ρ))/dρ = 1/(1−ρ) = 1/(1−0.77) at ρ = 0.77.
	slopeStar = 1 / (1 - deltaStar)
)

// deltaAt solves the GI/M/1 root for Generalized Pareto arrivals with
// burst degree xi and concurrency q at utilization rho. The result is
// scale-free in µ_S (Proposition 2), so a normalized µ_S = 1 is used.
func deltaAt(xi, q, rho float64) (float64, error) {
	const muS = 1.0
	arr, err := dist.NewGeneralizedPareto(xi, (1-q)*rho*muS)
	if err != nil {
		return 0, err
	}
	bq, err := queueing.NewBatchQueue(arr, q, muS)
	if err != nil {
		return 0, err
	}
	return bq.Delta(), nil
}

// CliffUtilization returns the utilization ρ_S(ξ) at which the
// Memcached-server processing latency reaches its cliff, for burst
// degree xi and concurrent probability q (Proposition 2 / Table 4).
func CliffUtilization(xi, q float64, method CliffMethod) (float64, error) {
	if xi < 0 || xi >= 1 || math.IsNaN(xi) {
		return 0, fmt.Errorf("core: cliff xi=%v must be in [0, 1)", xi)
	}
	if q < 0 || q >= 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("core: cliff q=%v must be in [0, 1)", q)
	}
	switch method {
	case CliffSlope:
		return cliffSlope(xi, q)
	case CliffDeltaThreshold:
		return cliffDeltaThreshold(xi, q)
	default:
		return 0, fmt.Errorf("core: unknown cliff method %d", method)
	}
}

// cliffSlope finds the ρ at which d ln E[T_S]/dρ = slopeStar, where
// E[T_S] ∝ 1/(1−δ(ρ)). The sensitivity δ'(ρ)/(1−δ(ρ)) is increasing in
// ρ (latency is log-convex in utilization), so the crossing is unique;
// the derivative is taken by central difference.
func cliffSlope(xi, q float64) (float64, error) {
	excess := func(rho float64) (float64, error) {
		const h = 1e-4
		dPlus, err := deltaAt(xi, q, rho+h)
		if err != nil {
			return 0, err
		}
		dMinus, err := deltaAt(xi, q, rho-h)
		if err != nil {
			return 0, err
		}
		d0, err := deltaAt(xi, q, rho)
		if err != nil {
			return 0, err
		}
		return (dPlus-dMinus)/(2*h)/(1-d0) - slopeStar, nil
	}
	// With tails this heavy (ξ ≳ 0.8) the sensitivity is over the
	// threshold at every utilization: the curve is all cliff.
	const lo = 1e-3
	if v, err := excess(lo); err != nil || v >= 0 {
		return lo, err
	}
	return crossing(excess, lo, 1-lo, 1e-6)
}

// cliffDeltaThreshold finds the ρ at which δ(ρ) = deltaStar: δ is
// strictly increasing in ρ with δ(0+) = 0 and δ(1-) = 1.
func cliffDeltaThreshold(xi, q float64) (float64, error) {
	return crossing(func(rho float64) (float64, error) {
		d, err := deltaAt(xi, q, rho)
		return d - deltaStar, err
	}, 1e-6, 1-1e-6, 1e-14)
}

// crossing finds the utilization in [lo, hi] at which g changes sign.
// g fails only when a trial queue has no numerical δ; the first such
// failure ends the search and is returned.
func crossing(g func(rho float64) (float64, error), lo, hi, tol float64) (float64, error) {
	var failed error
	rho, err := queueing.FindRoot(func(rho float64) float64 {
		if failed != nil {
			return 0
		}
		v, err := g(rho)
		if err != nil {
			failed = err
			return 0 // FindRoot stops at an exact zero
		}
		return v
	}, lo, hi, tol)
	if failed != nil {
		return 0, failed
	}
	return rho, err
}

// CliffRow is one row of Table 4.
type CliffRow struct {
	Xi          float64
	Utilization float64
}

// CliffTable reproduces Table 4: the cliff utilization for each burst
// degree, at concurrent probability q.
func CliffTable(xis []float64, q float64, method CliffMethod) ([]CliffRow, error) {
	rows := make([]CliffRow, 0, len(xis))
	for _, xi := range xis {
		u, err := CliffUtilization(xi, q, method)
		if err != nil {
			return nil, fmt.Errorf("xi=%v: %w", xi, err)
		}
		rows = append(rows, CliffRow{Xi: xi, Utilization: u})
	}
	return rows, nil
}

// PaperTable4Xis lists the ξ values of the paper's Table 4.
func PaperTable4Xis() []float64 {
	xis := make([]float64, 0, 20)
	for xi := 0.0; xi < 0.951; xi += 0.05 {
		xis = append(xis, math.Round(xi*100)/100)
	}
	return xis
}
