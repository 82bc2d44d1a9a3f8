package core

import (
	"fmt"
	"math"

	"memqlat/internal/queueing"
)

// Read-redundancy extension. The paper's related work (§2.2) cites
// "Low latency via redundancy" (Vulimiri et al.) and C3: issue each key
// to d replicas and keep the first answer. Within the paper's model
// this replaces the per-key latency CDF F(t) with 1 − (1−F(t))^d —
// and, because every replica serves the duplicated traffic, inflates
// each server's arrival rate by d. The two effects fight: redundancy
// wins at low utilization and loses past a crossover, which
// ExpectedTSPointRedundant lets you locate.

// ExpectedTSPointRedundant returns the Theorem 1-style point estimate
// (completion-time upper bound) of E[T_S(N)] when every key is sent to
// d replicas and the first response wins.
//
// When inflateLoad is true each server's key arrival rate is multiplied
// by d (the physically consistent accounting: duplicated requests are
// served everywhere). With inflateLoad false the load is held fixed —
// the hypothetical "free replicas" upper bound on the benefit.
func (c *Config) ExpectedTSPointRedundant(d int, inflateLoad bool) (float64, error) {
	if d < 1 {
		return 0, fmt.Errorf("core: replication degree %d must be >= 1", d)
	}
	trial := *c
	if inflateLoad {
		trial.TotalKeyRate = c.TotalKeyRate * float64(d)
	}
	if err := trial.Validate(); err != nil {
		return 0, err
	}
	tails, err := trial.tails()
	if err != nil {
		return 0, err
	}
	// Per-key latency with d-way redundancy: min of d i.i.d. draws from
	// the (completion-form) per-key CDF. Composite over servers, then
	// the N/(N+1) maximal-statistics quantile as usual.
	k := float64(trial.N) / float64(trial.N+1)
	logK := math.Log(k)
	logCDF := func(t float64) float64 {
		var s float64
		for _, st := range tails {
			base := -math.Expm1(-st.rate * t) // completion CDF
			if base <= 0 {
				return math.Inf(-1)
			}
			// 1 - (1-base)^d, computed stably.
			red := -math.Expm1(float64(d) * math.Log1p(-base))
			if red <= 0 {
				return math.Inf(-1)
			}
			s += st.p * math.Log(red)
		}
		return s
	}
	return SolveQuantile(logCDF, logK)
}

// RedundancyCrossover finds the base utilization (of the heaviest
// server, before duplication) at which d-way redundancy with load
// inflation stops helping: below the returned ρ it lowers E[T_S(N)],
// above it the duplicated load costs more than the hedge saves. Returns
// an error if redundancy never helps even at vanishing load.
func (c *Config) RedundancyCrossover(d int) (float64, error) {
	if d < 2 {
		return 0, fmt.Errorf("core: crossover needs d >= 2, got %d", d)
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	p1, _ := c.MaxLoadRatio()
	// The duplicated system saturates at base utilization 1/d.
	benefit := func(rho float64) (float64, error) {
		trial := *c
		trial.TotalKeyRate = rho * c.MuS / p1
		base, err := trial.ExpectedTSPoint()
		if err != nil {
			return 0, err
		}
		red, err := trial.ExpectedTSPointRedundant(d, true)
		if err != nil {
			return 0, err
		}
		return base - red, nil // positive = redundancy helps
	}
	loRho := 0.02
	hiRho := (1 - 1e-6) / float64(d)
	bLo, err := benefit(loRho)
	if err != nil {
		return 0, err
	}
	if bLo <= 0 {
		return 0, fmt.Errorf("core: %d-way redundancy does not help even at ρ=%.2f", d, loRho)
	}
	// benefit is positive at loRho and negative near saturation of the
	// duplicated system, where the trial can go unstable: that is
	// "redundancy hurts" territory too.
	return queueing.FindRoot(func(rho float64) float64 {
		b, err := benefit(rho)
		if err != nil {
			return math.Inf(-1)
		}
		return b
	}, loRho, hiRho, 1e-12)
}
