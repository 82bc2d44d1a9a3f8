package core

import (
	"math"
	"testing"
	"testing/quick"

	"memqlat/internal/dist"
)

// TestTable3TDValue reproduces the paper's Table 3 "Theorem 1" row for
// TD(N): 836 µs for N=150, r=0.01, muD=1000.
func TestTable3TDValue(t *testing.T) {
	c := facebook()
	td, err := c.ExpectedTD()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(td, 836e-6, 0.01) {
		t.Errorf("E[TD(150)] = %v s, paper says 836 µs", td)
	}
}

// TestTable3TSRange reproduces the paper's Table 3 "Theorem 1" row for
// TS(N): 351–366 µs for the Facebook workload.
func TestTable3TSRange(t *testing.T) {
	c := facebook()
	b, err := c.ExpectedTSBounds()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports the interval [351µs, 366µs]. Match the upper
	// bound closely and require the lower bound to sit below it in the
	// right neighbourhood.
	if !almostEqual(b.Hi, 366e-6, 0.05) {
		t.Errorf("TS upper = %v s, paper says ~366 µs", b.Hi)
	}
	if b.Lo >= b.Hi {
		t.Errorf("bounds inverted: %+v", b)
	}
	if b.Lo < 300e-6 || b.Lo > 366e-6 {
		t.Errorf("TS lower = %v s, paper says ~351 µs", b.Lo)
	}
}

// TestTable3Total reproduces the Table 3 total-latency bound
// 836 µs ~ 1222 µs.
func TestTable3Total(t *testing.T) {
	c := facebook()
	est, err := c.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(est.Total.Lo, 836e-6, 0.02) {
		t.Errorf("total lower = %v, paper says 836 µs", est.Total.Lo)
	}
	if !almostEqual(est.Total.Hi, 1222e-6, 0.05) {
		t.Errorf("total upper = %v, paper says 1222 µs", est.Total.Hi)
	}
	if est.TN != 20e-6 {
		t.Errorf("TN = %v", est.TN)
	}
	if est.Delta <= 0 || est.Delta >= 1 {
		t.Errorf("delta = %v", est.Delta)
	}
}

func TestEstimateInvalidConfig(t *testing.T) {
	c := facebook()
	c.N = 0
	if _, err := c.Estimate(); err == nil {
		t.Error("invalid config estimated")
	}
}

func TestEstimateUnstableServer(t *testing.T) {
	c := facebook()
	c.TotalKeyRate = 4 * 90000 // rho > 1
	if _, err := c.Estimate(); err == nil {
		t.Error("unstable server estimated")
	}
}

func TestExpectedTDZeroMiss(t *testing.T) {
	c := facebook()
	c.MissRatio = 0
	td, err := c.ExpectedTD()
	if err != nil {
		t.Fatal(err)
	}
	if td != 0 {
		t.Errorf("TD = %v, want 0", td)
	}
}

func TestExpectedTDFullMiss(t *testing.T) {
	c := facebook()
	c.MissRatio = 1
	td, err := c.ExpectedTD()
	if err != nil {
		t.Fatal(err)
	}
	// All N keys miss: E[TD] ≈ ln(N+1)/muD.
	want := math.Log(float64(c.N)+1) / c.MuD
	if !almostEqual(td, want, 1e-9) {
		t.Errorf("TD = %v, want %v", td, want)
	}
}

func TestExpectedTDTinyMissStable(t *testing.T) {
	// r = 1e-12 with N=150: numerically stable via expm1/log1p, and
	// approximately N*r/muD * ln(2) — Θ(r).
	c := facebook()
	c.MissRatio = 1e-12
	td, err := c.ExpectedTD()
	if err != nil {
		t.Fatal(err)
	}
	want := 150e-12 / c.MuD * math.Log(2)
	if !almostEqual(td, want, 0.01) {
		t.Errorf("TD = %v, want ~%v", td, want)
	}
}

func TestMissAnyProbability(t *testing.T) {
	tests := []struct {
		r    float64
		n    int
		want float64
	}{
		{0, 150, 0},
		{1, 5, 1},
		{0.5, 1, 0.5},
		{0.01, 150, 1 - math.Pow(0.99, 150)},
	}
	for _, tt := range tests {
		if got := missAnyProbability(tt.r, tt.n); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("missAny(%v, %d) = %v, want %v", tt.r, tt.n, got, tt.want)
		}
	}
}

// E[TS(N)] grows logarithmically in N (Fig. 12): doubling ln N adds a
// constant increment equal to the slope.
func TestTSLogGrowth(t *testing.T) {
	c := facebook()
	_, _, rate, err := c.expectedTS()
	if err != nil {
		t.Fatal(err)
	}
	slope := 1 / rate // 1/((1−δ)(1−q)µ_S), §5.2.4
	var prev float64
	for i, n := range []int{10, 100, 1000, 10000} {
		c.N = n
		ts, err := c.ExpectedTSPoint()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			inc := ts - prev
			want := slope * math.Log(10)
			if !almostEqual(inc, want, 0.05) {
				t.Errorf("N=%d: increment %v, want %v", n, inc, want)
			}
		}
		prev = ts
	}
}

// E[TD(N)] approaches ln(N r + 1)/muD for large N (Fig. 13, §5.2.4).
func TestTDLogGrowthLargeN(t *testing.T) {
	c := facebook()
	c.N = 1000000
	td, err := c.ExpectedTD()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(float64(c.N)*c.MissRatio+1) / c.MuD
	if !almostEqual(td, want, 0.01) {
		t.Errorf("TD = %v, want ~%v", td, want)
	}
}

// Eq. 25: for small N, E[TD] is linear in r; for large N, logarithmic.
func TestTDRegimes(t *testing.T) {
	c := facebook()
	// Small N: doubling r doubles TD.
	c.N = 1
	c.MissRatio = 0.001
	td1, _ := c.ExpectedTD()
	c.MissRatio = 0.002
	td2, _ := c.ExpectedTD()
	if !almostEqual(td2/td1, 2, 0.01) {
		t.Errorf("small-N ratio = %v, want 2 (Θ(r))", td2/td1)
	}
	// Large N: multiplying r by 10 adds ~ln(10)/muD.
	c.N = 100000
	c.MissRatio = 0.001
	td3, _ := c.ExpectedTD()
	c.MissRatio = 0.01
	td4, _ := c.ExpectedTD()
	if !almostEqual(td4-td3, math.Log(10)/c.MuD, 0.05) {
		t.Errorf("large-N increment = %v, want %v (Θ(log r))", td4-td3, math.Log(10)/c.MuD)
	}
}

func TestClassifyTDRegime(t *testing.T) {
	tests := []struct {
		n    int
		r    float64
		want TDRegime
	}{
		{1, 0.01, TDLinear},
		{10, 0.01, TDLinear},
		{100, 0.01, TDTransitional},
		{10000, 0.01, TDLogarithmic},
	}
	for _, tt := range tests {
		if got := ClassifyTDRegime(tt.n, tt.r); got != tt.want {
			t.Errorf("regime(%d, %v) = %v, want %v", tt.n, tt.r, got, tt.want)
		}
	}
	for _, r := range []TDRegime{TDLinear, TDLogarithmic, TDTransitional, TDRegime(99)} {
		if r.String() == "" {
			t.Error("empty String()")
		}
	}
}

// §5.2.1(i): E[TS(N)] = Θ(1/(1-q)) — latency doubles from q=0 to q=0.5
// when the batch process is held fixed.
func TestConcurrencyScalingLinear(t *testing.T) {
	// With the key rate λ fixed, the batch arrival and service rates
	// both scale by (1−q), so δ is invariant and the ratio is 1/(1−q).
	var ts [2]float64
	for i, q := range []float64{0, 0.5} {
		c := facebook()
		c.Q = q
		var err error
		if ts[i], err = c.ExpectedTSPoint(); err != nil {
			t.Fatal(err)
		}
	}
	if ratio := ts[1] / ts[0]; !almostEqual(ratio, 2, 0.02) {
		t.Errorf("scaling(q=0.5) = %v, want ~2", ratio)
	}
}

// Proposition 2: scaling (Λ, µS) jointly leaves δ unchanged and scales
// latency by 1/c.
func TestProposition2Invariance(t *testing.T) {
	c := facebook()
	for _, scale := range []float64{0.5, 2, 10} {
		dErr, lErr, err := Proposition2Invariant(c, scale)
		if err != nil {
			t.Fatal(err)
		}
		if dErr > 1e-6 {
			t.Errorf("scale %v: delta error %v", scale, dErr)
		}
		if lErr > 1e-6 {
			t.Errorf("scale %v: latency error %v", scale, lErr)
		}
	}
	if _, _, err := Proposition2Invariant(c, 0); err == nil {
		t.Error("zero scale accepted")
	}
}

// Burstier traffic strictly increases E[TS(N)] at fixed utilization
// (Fig. 6 monotonicity).
func TestTSIncreasesWithXi(t *testing.T) {
	prev := 0.0
	for _, xi := range []float64{0, 0.15, 0.3, 0.45, 0.6} {
		c := facebook()
		c.Xi = xi
		ts, err := c.ExpectedTSPoint()
		if err != nil {
			t.Fatal(err)
		}
		if ts <= prev {
			t.Errorf("xi=%v: TS=%v not increasing", xi, ts)
		}
		prev = ts
	}
}

// Heavier imbalance (larger p1 at fixed aggregate rate) increases
// latency (Fig. 10 monotonicity).
func TestTSIncreasesWithImbalance(t *testing.T) {
	prev := 0.0
	for _, p1 := range []float64{0.3, 0.5, 0.7, 0.9} {
		c := facebook()
		ratios, err := UnbalancedLoad(4, p1)
		if err != nil {
			t.Fatal(err)
		}
		c.LoadRatios = ratios
		c.TotalKeyRate = 80000
		ts, err := c.ExpectedTSPoint()
		if err != nil {
			t.Fatal(err)
		}
		if ts <= prev {
			t.Errorf("p1=%v: TS=%v not increasing", p1, ts)
		}
		prev = ts
	}
}

// Bounds sanity under random valid configurations.
func TestPropertyEstimateBounds(t *testing.T) {
	f := func(rawXi, rawRho, rawQ, rawR float64, rawN uint16) bool {
		xi := math.Abs(math.Mod(rawXi, 0.8))
		rho := 0.1 + math.Abs(math.Mod(rawRho, 0.8))
		q := math.Abs(math.Mod(rawQ, 0.5))
		r := math.Abs(math.Mod(rawR, 0.5))
		n := int(rawN)%1000 + 1
		c := &Config{
			N:              n,
			LoadRatios:     BalancedLoad(4),
			TotalKeyRate:   4 * rho * 80000,
			Q:              q,
			Xi:             xi,
			MuS:            80000,
			MissRatio:      r,
			MuD:            1000,
			NetworkLatency: 20e-6,
		}
		est, err := c.Estimate()
		if err != nil {
			return false
		}
		if est.TS.Lo < 0 || est.TS.Hi < est.TS.Lo {
			return false
		}
		if est.TD < 0 {
			return false
		}
		if est.Total.Hi < est.Total.Lo {
			return false
		}
		return est.Total.Lo >= math.Max(est.TN, math.Max(est.TS.Lo, est.TD))-1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBoundsHelpers(t *testing.T) {
	b := Bounds{Lo: 1, Hi: 3}
	if b.Mid() != 2 {
		t.Errorf("mid = %v", b.Mid())
	}
}

func TestFactorsTable(t *testing.T) {
	fs := Factors()
	if len(fs) != 7 {
		t.Fatalf("factor count = %d", len(fs))
	}
	seen := make(map[string]bool)
	for _, f := range fs {
		if f.Symbol == "" || f.Name == "" || f.Law == "" {
			t.Errorf("incomplete factor %+v", f)
		}
		if seen[f.Symbol] {
			t.Errorf("duplicate symbol %s", f.Symbol)
		}
		seen[f.Symbol] = true
	}
}

// countedArrival counts the transform evaluations of the distribution
// it wraps: the unit of work of an eq. 6 solve.
type countedArrival struct {
	dist.Interarrival
	evals *int
}

func (c countedArrival) LaplaceTransform(s float64) float64 {
	*c.evals++
	return c.Interarrival.LaplaceTransform(s)
}

// One Estimate of a balanced deployment is one eq. 6 solve, however
// many servers share the load, and the solve is a handful of transform
// evaluations. Both are counts, not times, so the gate reads the same
// on any machine: four solves of 48 evaluations each is what per-server
// bisection cost.
func TestEstimateSolvesDeltaOnce(t *testing.T) {
	c := facebook()
	var solves, evals int
	c.Arrival = func(batchRate float64) (dist.Interarrival, error) {
		solves++
		gp, err := dist.NewGeneralizedPareto(c.Xi, batchRate)
		return countedArrival{gp, &evals}, err
	}
	want, err := facebook().Estimate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("estimate through the factory = %+v, want %+v", *got, *want)
	}
	if solves != 1 {
		t.Errorf("%d-server balanced config solved δ %d times, want 1", c.M(), solves)
	}
	if evals > 20 {
		t.Errorf("δ solve took %d transform evaluations, want <= 20", evals)
	}
	t.Logf("%d solve, %d transform evaluations", solves, evals)

	// Distinct ratios are distinct queues: one solve each.
	solves = 0
	c.LoadRatios = []float64{0.31, 0.23, 0.23, 0.23}
	if _, err := c.Estimate(); err != nil {
		t.Fatal(err)
	}
	if solves != 2 {
		t.Errorf("two distinct load ratios solved δ %d times, want 2", solves)
	}
}
