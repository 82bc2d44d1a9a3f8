package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// GeometricBatch is the paper's batch-size distribution for concurrent
// key arrivals (§3):
//
//	P{X = n} = q^{n-1}·(1-q),  n = 1, 2, ...
//
// where q is the concurrent probability. The mean batch size is 1/(1-q).
// q = 0 means every batch contains exactly one key.
type GeometricBatch struct {
	// Q is the concurrent probability in [0, 1).
	Q float64
}

// NewGeometricBatch validates 0 <= q < 1.
func NewGeometricBatch(q float64) (GeometricBatch, error) {
	if q < 0 || q >= 1 || math.IsNaN(q) {
		return GeometricBatch{}, fmt.Errorf("dist: concurrent probability q=%v must be in [0, 1)", q)
	}
	return GeometricBatch{Q: q}, nil
}

// SampleInt draws a batch size (>= 1) by inversion.
func (g GeometricBatch) SampleInt(rng *rand.Rand) int {
	if g.Q == 0 {
		return 1
	}
	// P{X > n} = q^n  =>  X = 1 + floor(ln U / ln q) for U uniform(0,1).
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	n := 1 + int(math.Log(u)/math.Log(g.Q))
	if n < 1 {
		return 1
	}
	return n
}

// Sample implements Sampler, returning the batch size as a float64.
func (g GeometricBatch) Sample(rng *rand.Rand) float64 { return float64(g.SampleInt(rng)) }

// Mean returns 1/(1-Q).
func (g GeometricBatch) Mean() float64 { return 1 / (1 - g.Q) }

var _ Sampler = GeometricBatch{}

// Zipf samples integers in [0, N) with probability proportional to
// 1/(rank+1)^S — the standard model for skewed key popularity ("a small
// percentage of values are accessed quite frequently", paper §2.1). The
// implementation precomputes the CDF once and samples by binary search,
// so construction is O(N) and sampling O(log N).
type Zipf struct {
	cdf []float64
	s   float64
}

// NewZipf validates n >= 1 and s >= 0 (s = 0 is uniform).
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: zipf support size %d must be >= 1", n)
	}
	if s < 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("dist: zipf exponent %v must be >= 0", s)
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, s: s}, nil
}

// SampleInt draws a rank in [0, N).
func (z *Zipf) SampleInt(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Prob returns the probability of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

// Weighted samples indices in [0, len(weights)) proportionally to the
// given non-negative weights. It realizes the paper's unbalanced load
// distribution {p_j} when assigning keys to Memcached servers.
type Weighted struct {
	cdf []float64
}

// NewWeighted validates a non-empty, non-negative weight vector with a
// positive sum. Weights need not be normalized.
func NewWeighted(weights []float64) (*Weighted, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("dist: weighted needs at least one weight")
	}
	cdf := make([]float64, len(weights))
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("dist: weight[%d]=%v is negative", i, w)
		}
		sum += w
		cdf[i] = sum
	}
	if !(sum > 0) {
		return nil, fmt.Errorf("dist: weights sum to %v, want > 0", sum)
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Weighted{cdf: cdf}, nil
}

// SampleInt draws an index.
func (w *Weighted) SampleInt(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(w.cdf, u)
}

// SamplePoisson draws from Poisson(mean): Knuth's product method for
// small means, a normal approximation (rounded, clamped at 0) for large
// means. Used to sample per-request miss counts when N is too large for
// per-key Bernoulli draws.
func SamplePoisson(rng *rand.Rand, mean float64) int64 {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		var k int64
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	k := int64(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
	if k < 0 {
		return 0
	}
	return k
}

// SampleBinomial draws from Binomial(n, p): exact Bernoulli summation
// for small n, Poisson/normal approximations for large n with small or
// moderate p.
func SampleBinomial(rng *rand.Rand, n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 1024 {
		var k int64
		for i := int64(0); i < n; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	if p < 0.05 {
		k := SamplePoisson(rng, mean)
		if k > n {
			return n
		}
		return k
	}
	sd := math.Sqrt(mean * (1 - p))
	k := int64(math.Round(mean + sd*rng.NormFloat64()))
	if k < 0 {
		return 0
	}
	if k > n {
		return n
	}
	return k
}

// SampleMaxExponential draws max(X_1..X_k) for i.i.d. Exp(rate) in O(1)
// by inverting the CDF (1-e^{-rate·t})^k.
func SampleMaxExponential(rng *rand.Rand, rate float64, k int64) float64 {
	if k <= 0 || !(rate > 0) {
		return 0
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	// t = -ln(1 - u^{1/k}) / rate, computed stably: u^{1/k} near 1 for
	// large k, so use expm1/log1p forms.
	logU := math.Log(u) / float64(k)
	inner := -math.Expm1(logU) // 1 - u^{1/k}
	return -math.Log(inner) / rate
}
