// Package core implements the paper's primary contribution: the
// analytical latency model for the Memcached system (Cheng, Ren, Jiang,
// Zhang — "Modeling and Analyzing Latency in the Memcached system",
// ICDCS 2017).
//
// The model (paper §3) extends the classical Fork-Join picture with
// three Memcached-specific enhancements:
//
//  1. an unbalanced load distribution {p_j} across the M Memcached
//     servers,
//  2. a GI^X/M/1 queue per server capturing bursty (Generalized Pareto)
//     and concurrent (geometric batch) key arrivals, and
//  3. an M/M/1 cache-miss stage modeling the back-end database.
//
// Package core turns that model into executable estimators: Theorem 1
// latency bounds, Propositions 1–2, the utilization-cliff analysis of
// Table 4, and the asymptotic laws of §5.2.
package core

import (
	"errors"
	"fmt"
	"math"

	"memqlat/internal/dist"
	"memqlat/internal/queueing"
)

// ArrivalFactory builds the batch inter-arrival distribution for a
// server observing the given batch arrival rate (batches per second).
// The default factory produces the paper's Generalized Pareto gaps.
type ArrivalFactory func(batchRate float64) (dist.Interarrival, error)

// Config describes one Memcached deployment + workload in the model's
// terms (paper Table 1). All rates are per second, all times in seconds.
type Config struct {
	// N is the number of Memcached keys generated per end-user request.
	N int

	// LoadRatios is {p_j}: the fraction of all keys hashed to each of
	// the M servers. Must be non-negative and sum to 1.
	LoadRatios []float64

	// TotalKeyRate is Λ, the aggregate key arrival rate over all
	// servers; server j observes p_j·Λ keys per second.
	TotalKeyRate float64

	// Q is the concurrent probability: batches of keys are geometric
	// with P{X=n} = Q^{n-1}(1-Q).
	Q float64

	// Xi is the burst degree of the Generalized Pareto batch
	// inter-arrival gaps (0 = Poisson).
	Xi float64

	// MuS is the per-key service rate of each Memcached server.
	MuS float64

	// MissRatio is r, the cache miss probability per key.
	MissRatio float64

	// MuD is the database service rate (keys per second).
	MuD float64

	// NetworkLatency is the constant per-key network latency n_i
	// (propagation + transmission; queueing is negligible, §4.2).
	NetworkLatency float64

	// Arrival optionally overrides the batch inter-arrival family.
	// When nil, Generalized Pareto with shape Xi is used.
	Arrival ArrivalFactory
}

// BalancedLoad returns the uniform load distribution over m servers.
func BalancedLoad(m int) []float64 {
	p := make([]float64, m)
	for i := range p {
		p[i] = 1 / float64(m)
	}
	return p
}

// UnbalancedLoad returns a load distribution over m servers where the
// first (heaviest) server receives p1 and the rest share 1-p1 evenly.
// It requires 1/m <= p1 <= 1 so that p1 is indeed the maximum.
func UnbalancedLoad(m int, p1 float64) ([]float64, error) {
	if m < 1 {
		return nil, fmt.Errorf("core: unbalanced load needs m >= 1, got %d", m)
	}
	if p1 < 1/float64(m) || p1 > 1 {
		return nil, fmt.Errorf("core: p1=%v out of [1/m, 1] for m=%d", p1, m)
	}
	p := make([]float64, m)
	p[0] = p1
	if m > 1 {
		rest := (1 - p1) / float64(m-1)
		for i := 1; i < m; i++ {
			p[i] = rest
		}
	}
	return p, nil
}

// Validate checks all parameters for model admissibility.
func (c *Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("core: N=%d must be >= 1", c.N)
	}
	if len(c.LoadRatios) == 0 {
		return errors.New("core: LoadRatios must be non-empty")
	}
	var sum float64
	for j, p := range c.LoadRatios {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("core: LoadRatios[%d]=%v negative", j, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("core: LoadRatios sum to %v, want 1", sum)
	}
	if !(c.TotalKeyRate > 0) {
		return fmt.Errorf("core: TotalKeyRate=%v must be positive", c.TotalKeyRate)
	}
	if c.Q < 0 || c.Q >= 1 || math.IsNaN(c.Q) {
		return fmt.Errorf("core: Q=%v must be in [0, 1)", c.Q)
	}
	if c.Xi < 0 || c.Xi >= 1 || math.IsNaN(c.Xi) {
		return fmt.Errorf("core: Xi=%v must be in [0, 1)", c.Xi)
	}
	if !(c.MuS > 0) {
		return fmt.Errorf("core: MuS=%v must be positive", c.MuS)
	}
	if c.MissRatio < 0 || c.MissRatio > 1 || math.IsNaN(c.MissRatio) {
		return fmt.Errorf("core: MissRatio=%v must be in [0, 1]", c.MissRatio)
	}
	if !(c.MuD > 0) {
		return fmt.Errorf("core: MuD=%v must be positive", c.MuD)
	}
	if c.NetworkLatency < 0 || math.IsNaN(c.NetworkLatency) {
		return fmt.Errorf("core: NetworkLatency=%v must be >= 0", c.NetworkLatency)
	}
	return nil
}

// M returns the number of Memcached servers.
func (c *Config) M() int { return len(c.LoadRatios) }

// ServerKeyRate returns λ_j = p_j·Λ for server j.
func (c *Config) ServerKeyRate(j int) float64 {
	return c.LoadRatios[j] * c.TotalKeyRate
}

// MaxLoadRatio returns p1 = max_j p_j and its index.
func (c *Config) MaxLoadRatio() (p1 float64, idx int) {
	for j, p := range c.LoadRatios {
		if p > p1 {
			p1, idx = p, j
		}
	}
	return p1, idx
}

// MaxUtilization returns the utilization of the heaviest server.
func (c *Config) MaxUtilization() float64 {
	p1, _ := c.MaxLoadRatio()
	return p1 * c.TotalKeyRate / c.MuS
}

// ArrivalFor builds the batch inter-arrival law of a stream of
// lambdaKeys keys per second: the Arrival override, or Generalized
// Pareto with shape Xi, at the batch rate (1−q)·lambdaKeys. It is the
// one place that law is built; the model's queues, the simulator's
// streams and the load generator's pacer all draw from it.
func (c *Config) ArrivalFor(lambdaKeys float64) (dist.Interarrival, error) {
	batchRate := (1 - c.Q) * lambdaKeys
	if c.Arrival != nil {
		return c.Arrival(batchRate)
	}
	return dist.NewGeneralizedPareto(c.Xi, batchRate)
}

// ServerQueue builds the GI^X/M/1 model of server j, which solves its
// δ; an overloaded server (ρ_j >= 1) is queueing.ErrUnstable here.
func (c *Config) ServerQueue(j int) (*queueing.BatchQueue, error) {
	if j < 0 || j >= c.M() {
		return nil, fmt.Errorf("core: server index %d out of range [0, %d)", j, c.M())
	}
	lam := c.ServerKeyRate(j)
	if !(lam > 0) {
		return nil, fmt.Errorf("core: server %d has zero load; queue undefined", j)
	}
	arr, err := c.ArrivalFor(lam)
	if err != nil {
		return nil, fmt.Errorf("server %d arrival: %w", j, err)
	}
	bq, err := queueing.NewBatchQueue(arr, c.Q, c.MuS)
	if err != nil {
		return nil, fmt.Errorf("server %d: %w", j, err)
	}
	return bq, nil
}

// HeaviestQueue builds the GI^X/M/1 model of the heaviest-loaded server
// (the one Proposition 1 says dominates end-user latency).
func (c *Config) HeaviestQueue() (*queueing.BatchQueue, error) {
	_, idx := c.MaxLoadRatio()
	return c.ServerQueue(idx)
}
