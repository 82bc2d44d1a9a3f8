package core

import (
	"fmt"
	"math"
)

// Tail-latency extensions. The paper reports expectations only (§4.5
// argues the expectation is what matters); production SLOs are stated
// as percentiles, so we extend the same model to full distributions:
//
//   - T_S(N) has CDF [T_S(1)(t)]^N (paper eq. 12's underlying
//     distribution), whose quantiles we bound with the same eq. 3
//     sandwich used for the mean;
//   - T_D(N) has the EXACT closed-form CDF (1 − r·e^{−µ_D·t})^N
//     (E[x^K] of the binomial miss count K is ((1−r) + r·x)^N),
//     which is strictly stronger than the paper's eq. 21–23
//     approximation chain.

// TSQuantileBounds bounds the k-th quantile of T_S(N), the maximum
// Memcached-stage latency over a request's N keys.
func (c *Config) TSQuantileBounds(k float64) (Bounds, error) {
	if err := checkLevel(k); err != nil {
		return Bounds{}, err
	}
	tails, err := c.tails()
	if err != nil {
		return Bounds{}, err
	}
	// P{T_S(N) <= t} = Π_j [F_j(t)]^{p_j·N}; solve at level k, i.e. the
	// composite per-key CDF at level k^{1/N}.
	return quantileBounds(tails, math.Log(k)/float64(c.N))
}

// TDQuantile returns the exact k-th quantile of T_D(N):
//
//	P{T_D(N) <= t} = (1 − r·e^{−µ_D·t})^N,
//
// hence t_k = −ln((1 − k^{1/N})/r)/µ_D, clamped at 0 when the request
// is more likely than k to have no miss at all.
func (c *Config) TDQuantile(k float64) (float64, error) {
	if err := checkLevel(k); err != nil {
		return 0, err
	}
	r := c.MissRatio
	if r == 0 {
		return 0, nil
	}
	// k^{1/N} computed stably for large N.
	kRoot := math.Exp(math.Log(k) / float64(c.N))
	x := (1 - kRoot) / r
	if x >= 1 {
		// P{K = 0 for all the mass below k}: the quantile sits at zero
		// (the request had no misses with probability >= k).
		return 0, nil
	}
	return -math.Log(x) / c.MuD, nil
}

// TDCDF evaluates the exact distribution of T_D(N) at t.
func (c *Config) TDCDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	r := c.MissRatio
	if r == 0 {
		return 1
	}
	return math.Exp(float64(c.N) * math.Log1p(-r*math.Exp(-c.MuD*t)))
}

// TailReport bundles the latency quantiles an SLO review would ask for.
type TailReport struct {
	Level float64
	TS    Bounds
	TD    float64
}

// Tails evaluates TSQuantileBounds and TDQuantile at each level.
func (c *Config) Tails(levels []float64) ([]TailReport, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	out := make([]TailReport, 0, len(levels))
	for _, k := range levels {
		ts, err := c.TSQuantileBounds(k)
		if err != nil {
			return nil, fmt.Errorf("level %v: %w", k, err)
		}
		td, err := c.TDQuantile(k)
		if err != nil {
			return nil, fmt.Errorf("level %v: %w", k, err)
		}
		out = append(out, TailReport{Level: k, TS: ts, TD: td})
	}
	return out, nil
}

func checkLevel(k float64) error {
	if math.IsNaN(k) || k <= 0 || k >= 1 {
		return fmt.Errorf("core: quantile level %v must be in (0, 1)", k)
	}
	return nil
}
