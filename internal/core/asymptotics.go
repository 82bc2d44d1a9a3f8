package core

import (
	"fmt"
	"math"
)

// TDRegime classifies the miss-latency scaling regime of eq. 25:
// with few keys per request E[T_D(N)] = Θ(r); with many keys it is
// Θ(log r) — the paper's argument for shrinking N rather than chasing
// tiny miss-ratio improvements.
type TDRegime int

const (
	// TDLinear: E[T_D(N)] grows linearly in the miss ratio (N·r ≪ 1).
	TDLinear TDRegime = iota + 1
	// TDLogarithmic: E[T_D(N)] grows logarithmically in the miss ratio
	// (N·r ≫ 1).
	TDLogarithmic
	// TDTransitional: N·r ≈ 1, between the two asymptotes.
	TDTransitional
)

// String implements fmt.Stringer.
func (r TDRegime) String() string {
	switch r {
	case TDLinear:
		return "Θ(r)"
	case TDLogarithmic:
		return "Θ(log r)"
	case TDTransitional:
		return "transitional"
	default:
		return fmt.Sprintf("TDRegime(%d)", int(r))
	}
}

// ClassifyTDRegime applies eq. 25's small/large-N criterion via the
// expected miss count N·r.
func ClassifyTDRegime(n int, r float64) TDRegime {
	nr := float64(n) * r
	switch {
	case nr < 0.3:
		return TDLinear
	case nr > 3:
		return TDLogarithmic
	default:
		return TDTransitional
	}
}

// Proposition2Invariant checks the scale invariance of Proposition 2:
// scaling (Λ, µ_S) by a common factor c leaves δ unchanged and scales
// E[T_S(N)] by 1/c. It returns the relative error of the two relations.
func Proposition2Invariant(cfg *Config, scale float64) (deltaErr, latencyErr float64, err error) {
	if !(scale > 0) {
		return 0, 0, fmt.Errorf("core: scale=%v must be positive", scale)
	}
	est1, err := cfg.Estimate()
	if err != nil {
		return 0, 0, err
	}
	scaled := *cfg
	scaled.TotalKeyRate = cfg.TotalKeyRate * scale
	scaled.MuS = cfg.MuS * scale
	est2, err := scaled.Estimate()
	if err != nil {
		return 0, 0, err
	}
	deltaErr = math.Abs(est1.Delta-est2.Delta) / est1.Delta
	want := est1.TS.Hi / scale
	latencyErr = math.Abs(est2.TS.Hi-want) / want
	return deltaErr, latencyErr, nil
}
