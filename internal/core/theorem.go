package core

import (
	"fmt"
	"math"

	"memqlat/internal/queueing"
)

// Bounds is a closed interval [Lo, Hi] bounding an expectation.
type Bounds struct {
	Lo, Hi float64
}

// Mid returns the midpoint of the interval.
func (b Bounds) Mid() float64 { return (b.Lo + b.Hi) / 2 }

// Estimate is the full Theorem 1 latency decomposition for a Config.
type Estimate struct {
	// TN is the constant maximum network latency T_N(N) (§4.2).
	TN float64
	// TS bounds E[T_S(N)], the expected maximum Memcached-server
	// processing latency over the request's N keys (eq. 14).
	TS Bounds
	// TD is the estimate of E[T_D(N)], the expected maximum database
	// latency (eq. 23).
	TD float64
	// Total bounds E[T(N)] per eq. 1:
	// max{TN, TS, TD} <= T(N) <= TN + TS + TD.
	Total Bounds
	// Delta is the GI/M/1 root at the heaviest server.
	Delta float64
	// DecayRate is (1-δ)(1-q)µ_S, the exponential decay rate of the
	// per-key latency tail at the heaviest server.
	DecayRate float64
}

// Estimate evaluates Theorem 1 for the configuration.
func (c *Config) Estimate() (*Estimate, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ts, delta, rate, err := c.expectedTS()
	if err != nil {
		return nil, err
	}
	td, err := c.ExpectedTD()
	if err != nil {
		return nil, err
	}
	tn := c.NetworkLatency
	total := Bounds{
		Lo: math.Max(tn, math.Max(ts.Lo, td)),
		Hi: tn + ts.Hi + td,
	}
	return &Estimate{
		TN:        tn,
		TS:        ts,
		TD:        td,
		Total:     total,
		Delta:     delta,
		DecayRate: rate,
	}, nil
}

// ExpectedTSBounds evaluates the Theorem 1 bounds on E[T_S(N)] using the
// composite distribution of eq. 11,
//
//	T_S(1)(t) = Π_j [T_Sj(t)]^{p_j},
//
// and the maximal-statistics approximation E[T_S(N)] = (T_S(1))_{N/(N+1)}
// (eq. 12). Each server's per-key latency CDF is sandwiched by eq. 3
// (queueing time below, completion time above, both exponential forms of
// eqs. 4–5), so the k-quantile of the composite is bounded by solving
//
//	Π_j (1 − δ_j·e^{−R_j·t})^{p_j} = k   (lower bound on the quantile)
//	Π_j (1 − e^{−R_j·t})^{p_j}    = k   (upper bound on the quantile)
//
// with R_j = (1−δ_j)(1−q)µ_S. With balanced identical servers these
// collapse to the paper's Table 3 forms (T_Q)_k and (T_C)_k; with
// unbalanced load they are the exact eq. 11 versions of eq. 14 (strictly
// tighter than the Proposition 1 p1-boost, which Proposition1TSBounds
// still exposes).
func (c *Config) ExpectedTSBounds() (Bounds, error) {
	b, _, _, err := c.expectedTS()
	return b, err
}

// serverTail holds the per-server exponential-tail parameters.
type serverTail struct {
	p     float64 // load ratio p_j
	delta float64
	rate  float64 // (1-δ_j)(1-q)µ_S
}

// tails returns the tail parameters of every loaded server. Servers
// with the same load ratio are the same queue, so eq. 6 is solved once
// per distinct ratio: once in all for a balanced deployment.
func (c *Config) tails() ([]serverTail, error) {
	out := make([]serverTail, 0, c.M())
	solved := make(map[float64]serverTail)
	for j, p := range c.LoadRatios {
		if p == 0 {
			continue
		}
		st, ok := solved[p]
		if !ok {
			bq, err := c.ServerQueue(j)
			if err != nil {
				return nil, err
			}
			st = serverTail{p: p, delta: bq.Delta(), rate: bq.DecayRate()}
			solved[p] = st
		}
		out = append(out, st)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no loaded servers")
	}
	return out, nil
}

func (c *Config) expectedTS() (Bounds, float64, float64, error) {
	tails, err := c.tails()
	if err != nil {
		return Bounds{}, 0, 0, err
	}
	k := float64(c.N) / float64(c.N+1)
	b, err := quantileBounds(tails, math.Log(k))
	if err != nil {
		return Bounds{}, 0, 0, err
	}
	// The heaviest server's parameters summarize the dominant tail.
	heavy := tails[0]
	for _, st := range tails {
		if st.p > heavy.p {
			heavy = st
		}
	}
	return b, heavy.delta, heavy.rate, nil
}

// quantileBounds solves the eq. 3 sandwich of the composite per-key CDF
// Π_j [F_j(t)]^{p_j} at log-level logK: the waiting-time form bounds
// the quantile below, the completion-time form above.
func quantileBounds(tails []serverTail, logK float64) (Bounds, error) {
	logWait := func(t float64) float64 {
		var s float64
		for _, st := range tails {
			s += st.p * math.Log(1-st.delta*math.Exp(-st.rate*t))
		}
		return s
	}
	logComplete := func(t float64) float64 {
		var s float64
		for _, st := range tails {
			v := -math.Expm1(-st.rate * t) // 1 - e^{-rt}, stable near 0
			if v <= 0 {
				return math.Inf(-1)
			}
			s += st.p * math.Log(v)
		}
		return s
	}
	lo, err := SolveQuantile(logWait, logK)
	if err != nil {
		return Bounds{}, err
	}
	hi, err := SolveQuantile(logComplete, logK)
	return Bounds{Lo: lo, Hi: hi}, err
}

// SolveQuantile finds t >= 0 with logCDF(t) = logK for a non-decreasing
// logCDF. Returns 0 when even t=0 already satisfies the level, and
// queueing.FindRoot's error when doubling from 1 µs never reaches it.
// The model's quantile bounds and the simulator's §4.5 estimator both
// solve through it.
func SolveQuantile(logCDF func(float64) float64, logK float64) (float64, error) {
	if logCDF(0) >= logK {
		return 0, nil
	}
	hi := 1e-6
	for i := 0; i < 200 && logCDF(hi) < logK; i++ {
		hi *= 2
	}
	return queueing.FindRoot(func(t float64) float64 { return logCDF(t) - logK }, 0, hi, 0)
}

// ExpectedTSPoint returns the single-curve prediction used for the
// paper's "Theorem 1" figure lines: the upper bound of ExpectedTSBounds
// (for balanced servers, ln(N+1)/((1−δ)(1−q)µ_S)). The validation
// tables report both bounds.
func (c *Config) ExpectedTSPoint() (float64, error) {
	b, err := c.ExpectedTSBounds()
	if err != nil {
		return 0, err
	}
	return b.Hi, nil
}

// Proposition1TSBounds evaluates the closed-form eq. 14 bounds derived
// from Proposition 1 (heaviest-server reduction with the k^{1/p1}
// quantile boost):
//
//	max{ (ln δ − ln(1 − k^{1/p1})) / R, 0 } <= E[T_S(N)] <= ln(N+1)/R
//
// with k = N/(N+1), R = (1−δ)(1−q)µ_S at the heaviest server. These are
// valid but looser than ExpectedTSBounds for balanced loads.
func (c *Config) Proposition1TSBounds() (Bounds, error) {
	bq, err := c.HeaviestQueue()
	if err != nil {
		return Bounds{}, err
	}
	delta, rate := bq.Delta(), bq.DecayRate()
	p1, _ := c.MaxLoadRatio()
	k := float64(c.N) / float64(c.N+1)
	hi := math.Log(float64(c.N)+1) / rate
	kBoost := math.Pow(k, 1/p1)
	lo := (math.Log(delta) - math.Log(1-kBoost)) / rate
	if lo < 0 {
		lo = 0
	}
	return Bounds{Lo: lo, Hi: hi}, nil
}

// ExpectedTD evaluates eq. 23, the estimate of E[T_D(N)]:
//
//	E[T_D(N)] ≈ (1 − (1−r)^N)/µ_D · ln( N·r / (1 − (1−r)^N) + 1 ).
//
// Per the paper's §4.4 the database stage is an M/M/1 whose utilization
// is negligible (the cache absorbs almost all load), so the eq. 19
// response-time CDF reduces to pure exponential service at rate µ_D and
// eq. 23 uses µ_D directly. The simulator models the stage the same way
// (an exponential-delay station), keeping theory and experiment aligned.
func (c *Config) ExpectedTD() (float64, error) {
	r := c.MissRatio
	if r == 0 {
		return 0, nil
	}
	n := float64(c.N)
	pMiss := missAnyProbability(r, c.N) // 1 - (1-r)^N, computed stably
	if pMiss == 0 {
		return 0, nil
	}
	expK := n * r / pMiss // E[K | K > 0]
	return pMiss / c.MuD * math.Log(expK+1), nil
}

// missAnyProbability computes 1-(1-r)^N without catastrophic
// cancellation for tiny r (uses expm1/log1p).
func missAnyProbability(r float64, n int) float64 {
	if r <= 0 {
		return 0
	}
	if r >= 1 {
		return 1
	}
	return -math.Expm1(float64(n) * math.Log1p(-r))
}
