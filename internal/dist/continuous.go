package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Exponential is the exponential distribution with the given Rate
// (mean 1/Rate). It is the M in the paper's GI^X/M/1 and M/M/1 queues.
type Exponential struct {
	Rate float64
}

var _ Interarrival = Exponential{}

// NewExponential validates rate > 0 and returns the distribution.
func NewExponential(rate float64) (Exponential, error) {
	if !(rate > 0) || math.IsInf(rate, 0) {
		return Exponential{}, fmt.Errorf("dist: exponential rate %v must be positive and finite", rate)
	}
	return Exponential{Rate: rate}, nil
}

// Sample draws an exponential variate.
func (e Exponential) Sample(rng *rand.Rand) float64 { return rng.ExpFloat64() / e.Rate }

// Mean returns 1/Rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// CDF evaluates 1 - e^{-Rate·t}.
func (e Exponential) CDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	return 1 - math.Exp(-e.Rate*t)
}

// LaplaceTransform evaluates Rate/(Rate+s).
func (e Exponential) LaplaceTransform(s float64) float64 { return e.Rate / (e.Rate + s) }

// Deterministic is the degenerate distribution concentrated at Value,
// used for constant network delay and D/M/1 comparisons.
type Deterministic struct {
	Value float64
}

var _ Interarrival = Deterministic{}

// NewDeterministic validates value >= 0.
func NewDeterministic(value float64) (Deterministic, error) {
	if value < 0 || math.IsNaN(value) {
		return Deterministic{}, fmt.Errorf("dist: deterministic value %v must be >= 0", value)
	}
	return Deterministic{Value: value}, nil
}

// Sample returns the constant.
func (d Deterministic) Sample(*rand.Rand) float64 { return d.Value }

// Mean returns the constant.
func (d Deterministic) Mean() float64 { return d.Value }

// CDF is the unit step at Value.
func (d Deterministic) CDF(t float64) float64 {
	if t < d.Value {
		return 0
	}
	return 1
}

// LaplaceTransform evaluates e^{-s·Value}.
func (d Deterministic) LaplaceTransform(s float64) float64 { return math.Exp(-s * d.Value) }

// Erlang is the Erlang-k distribution: the sum of Shape i.i.d.
// exponentials of the given Rate, mean Shape/Rate. Its squared
// coefficient of variation 1/Shape < 1 makes it the canonical
// smoother-than-Poisson arrival process.
type Erlang struct {
	Shape int
	Rate  float64
}

var _ Interarrival = Erlang{}

// NewErlang validates shape >= 1 and rate > 0.
func NewErlang(shape int, rate float64) (Erlang, error) {
	if shape < 1 {
		return Erlang{}, fmt.Errorf("dist: erlang shape %d must be >= 1", shape)
	}
	if !(rate > 0) {
		return Erlang{}, fmt.Errorf("dist: erlang rate %v must be positive", rate)
	}
	return Erlang{Shape: shape, Rate: rate}, nil
}

// Sample sums Shape exponential draws.
func (e Erlang) Sample(rng *rand.Rand) float64 {
	var sum float64
	for i := 0; i < e.Shape; i++ {
		sum += rng.ExpFloat64()
	}
	return sum / e.Rate
}

// Mean returns Shape/Rate.
func (e Erlang) Mean() float64 { return float64(e.Shape) / e.Rate }

// CDF evaluates 1 - e^{-rt} Σ_{i<Shape} (rt)^i / i!.
func (e Erlang) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	rt := e.Rate * t
	term := 1.0
	sum := 1.0
	for i := 1; i < e.Shape; i++ {
		term *= rt / float64(i)
		sum += term
	}
	return 1 - math.Exp(-rt)*sum
}

// LaplaceTransform evaluates (Rate/(Rate+s))^Shape.
func (e Erlang) LaplaceTransform(s float64) float64 {
	return math.Pow(e.Rate/(e.Rate+s), float64(e.Shape))
}

// Hyperexponential is a probabilistic mixture of exponentials: with
// probability Probs[i] the variate is exponential with Rates[i]. Its
// squared coefficient of variation exceeds 1, making it the canonical
// burstier-than-Poisson renewal process with a closed-form transform.
type Hyperexponential struct {
	Probs []float64
	Rates []float64
}

var _ Interarrival = Hyperexponential{}

// NewHyperexponential validates matching lengths, probabilities summing
// to 1 and positive rates.
func NewHyperexponential(probs, rates []float64) (Hyperexponential, error) {
	if len(probs) == 0 || len(probs) != len(rates) {
		return Hyperexponential{}, fmt.Errorf("dist: hyperexp needs matching non-empty probs/rates, got %d/%d", len(probs), len(rates))
	}
	var sum float64
	for i := range probs {
		if probs[i] < 0 {
			return Hyperexponential{}, fmt.Errorf("dist: hyperexp prob[%d]=%v negative", i, probs[i])
		}
		if !(rates[i] > 0) {
			return Hyperexponential{}, fmt.Errorf("dist: hyperexp rate[%d]=%v not positive", i, rates[i])
		}
		sum += probs[i]
	}
	if math.Abs(sum-1) > 1e-9 {
		return Hyperexponential{}, fmt.Errorf("dist: hyperexp probs sum to %v, want 1", sum)
	}
	h := Hyperexponential{
		Probs: append([]float64(nil), probs...),
		Rates: append([]float64(nil), rates...),
	}
	return h, nil
}

// Sample picks a phase then draws from its exponential.
func (h Hyperexponential) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	var cum float64
	for i, p := range h.Probs {
		cum += p
		if u < cum {
			return rng.ExpFloat64() / h.Rates[i]
		}
	}
	return rng.ExpFloat64() / h.Rates[len(h.Rates)-1]
}

// Mean returns Σ p_i / r_i.
func (h Hyperexponential) Mean() float64 {
	var m float64
	for i, p := range h.Probs {
		m += p / h.Rates[i]
	}
	return m
}

// CDF evaluates Σ p_i (1 - e^{-r_i t}).
func (h Hyperexponential) CDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	var c float64
	for i, p := range h.Probs {
		c += p * (1 - math.Exp(-h.Rates[i]*t))
	}
	return c
}

// LaplaceTransform evaluates Σ p_i r_i/(r_i+s).
func (h Hyperexponential) LaplaceTransform(s float64) float64 {
	var l float64
	for i, p := range h.Probs {
		l += p * h.Rates[i] / (h.Rates[i] + s)
	}
	return l
}

// LogNormal has log-mean Mu and log-stddev Sigma. The paper does not use
// it analytically, but real key-value service times are often lognormal;
// it is provided for workload experimentation. Its Laplace transform is
// computed numerically.
type LogNormal struct {
	Mu, Sigma float64
}

var _ Interarrival = LogNormal{}

// NewLogNormal validates sigma > 0.
func NewLogNormal(mu, sigma float64) (LogNormal, error) {
	if !(sigma > 0) {
		return LogNormal{}, fmt.Errorf("dist: lognormal sigma %v must be positive", sigma)
	}
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// NewLogNormalMean returns the lognormal of the given mean and shape:
// Mu = ln(mean) − Sigma²/2.
func NewLogNormalMean(mean, sigma float64) (LogNormal, error) {
	if !(mean > 0) || math.IsInf(mean, 1) {
		return LogNormal{}, fmt.Errorf("dist: lognormal mean %v must be positive and finite", mean)
	}
	return NewLogNormal(math.Log(mean)-sigma*sigma/2, sigma)
}

// Sample draws exp(Mu + Sigma·Z).
func (l LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// Mean returns exp(Mu + Sigma²/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// CDF evaluates Φ((ln t - Mu)/Sigma).
func (l LogNormal) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(t)-l.Mu)/(l.Sigma*math.Sqrt2))
}

// LaplaceTransform integrates the survival function numerically.
func (l LogNormal) LaplaceTransform(s float64) float64 {
	return laplaceFromSurvival(func(t float64) float64 { return 1 - l.CDF(t) }, s)
}
