package queueing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"memqlat/internal/dist"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	// Relative comparison with a tiny absolute floor so that
	// microsecond-scale quantities are compared meaningfully.
	return math.Abs(a-b) <= tol*math.Max(1e-15, math.Max(math.Abs(a), math.Abs(b)))
}

func mustExp(t *testing.T, rate float64) dist.Exponential {
	t.Helper()
	e, err := dist.NewExponential(rate)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustGP(t *testing.T, xi, lambda float64) dist.GeneralizedPareto {
	t.Helper()
	g, err := dist.NewGeneralizedPareto(xi, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewBatchQueueValidation(t *testing.T) {
	exp := mustExp(t, 1)
	if _, err := NewBatchQueue(nil, 0.1, 1); err == nil {
		t.Error("nil interarrival accepted")
	}
	if _, err := NewBatchQueue(exp, -0.1, 1); err == nil {
		t.Error("negative q accepted")
	}
	if _, err := NewBatchQueue(exp, 1, 1); err == nil {
		t.Error("q=1 accepted")
	}
	if _, err := NewBatchQueue(exp, 0.1, 0); err == nil {
		t.Error("muS=0 accepted")
	}
}

func TestBatchQueueRates(t *testing.T) {
	// Facebook workload: lambda (keys) = 62.5K, q = 0.1, muS = 80K.
	// Batch rate = (1-q)*lambda = 56.25K; utilization = 62.5/80 = 0.78125.
	batchRate := (1 - 0.1) * 62500.0
	bq, err := NewBatchQueue(mustExp(t, batchRate), 0.1, 80000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(bq.KeyArrivalRate(), 62500, 1e-9) {
		t.Errorf("key rate = %v", bq.KeyArrivalRate())
	}
	if !almostEqual(bq.Utilization(), 62500.0/80000, 1e-9) {
		t.Errorf("rho = %v", bq.Utilization())
	}
	if !almostEqual(bq.BatchServiceRate(), 72000, 1e-9) {
		t.Errorf("muB = %v", bq.BatchServiceRate())
	}
}

// For Poisson batch arrivals with q=0 the GI/M/1 delta equals rho
// exactly (M/M/1 special case).
func TestDeltaPoissonEqualsRho(t *testing.T) {
	tests := []struct{ lambda, mu float64 }{
		{30000, 80000},
		{62500, 80000},
		{10, 100},
		{99, 100},
	}
	for _, tt := range tests {
		bq, err := NewBatchQueue(mustExp(t, tt.lambda), 0, tt.mu)
		if err != nil {
			t.Fatal(err)
		}
		delta := bq.Delta()
		want := tt.lambda / tt.mu
		if !almostEqual(delta, want, 1e-9) {
			t.Errorf("lambda=%v mu=%v: delta = %v, want rho = %v", tt.lambda, tt.mu, delta, want)
		}
	}
}

// D/M/1 (deterministic arrivals) has a known delta: delta = e^{-mu(1-delta)/lambda}.
// Spot check at rho = 0.5: delta solves delta = e^{-2(1-delta)}, delta ≈ 0.2032.
func TestDeltaDeterministicArrivals(t *testing.T) {
	d, err := dist.NewDeterministic(1.0 / 50) // batch rate 50
	if err != nil {
		t.Fatal(err)
	}
	bq, err := NewBatchQueue(d, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	delta := bq.Delta()
	if !almostEqual(delta, 0.20319, 1e-3) {
		t.Errorf("D/M/1 delta = %v, want ~0.20319", delta)
	}
}

// A queue with no δ is never built: ρ >= 1 fails at construction.
func TestDeltaUnstable(t *testing.T) {
	for _, lambda := range []float64{100, 150} { // rho = 1, 1.5
		if _, err := NewBatchQueue(mustExp(t, lambda), 0, 100); !errors.Is(err, ErrUnstable) {
			t.Errorf("lambda=%v: err = %v, want ErrUnstable", lambda, err)
		}
	}
}

// delta is the root of the fixed-point equation: verify the residual.
func TestDeltaSatisfiesFixedPoint(t *testing.T) {
	for _, xi := range []float64{0, 0.15, 0.4, 0.6} {
		gp := mustGP(t, xi, 56250) // batch arrival process
		bq, err := NewBatchQueue(gp, 0.1, 80000)
		if err != nil {
			t.Fatal(err)
		}
		delta := bq.Delta()
		if delta <= 0 || delta >= 1 {
			t.Fatalf("xi=%v: delta = %v out of (0,1)", xi, delta)
		}
		want := gp.LaplaceTransform((1 - delta) * bq.BatchServiceRate())
		if !almostEqual(delta, want, 1e-9) {
			t.Errorf("xi=%v: fixed point residual: delta=%v L=%v", xi, delta, want)
		}
	}
}

// Burstier arrivals (larger xi) must give larger delta (longer delays)
// at equal utilization.
func TestDeltaIncreasesWithBurstiness(t *testing.T) {
	prev := -1.0
	for _, xi := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		bq, err := NewBatchQueue(mustGP(t, xi, 56250), 0.1, 80000)
		if err != nil {
			t.Fatal(err)
		}
		delta := bq.Delta()
		if delta <= prev {
			t.Errorf("delta(xi=%v) = %v not greater than previous %v", xi, delta, prev)
		}
		prev = delta
	}
}

// delta increases with utilization for a fixed arrival shape.
func TestDeltaIncreasesWithUtilization(t *testing.T) {
	prev := -1.0
	for _, lambda := range []float64{10000, 30000, 50000, 70000} {
		bq, err := NewBatchQueue(mustGP(t, 0.15, (1-0.1)*lambda), 0.1, 80000)
		if err != nil {
			t.Fatal(err)
		}
		delta := bq.Delta()
		if delta <= prev {
			t.Errorf("delta(lambda=%v) = %v not increasing", lambda, delta)
		}
		prev = delta
	}
}

func TestCDFsAndQuantilesConsistent(t *testing.T) {
	bq, err := NewBatchQueue(mustGP(t, 0.15, 56250), 0.1, 80000)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []float64{0, 0.25, 0.5, 0.9, 0.99} {
		tq, err := bq.WaitingQuantile(k)
		if err != nil {
			t.Fatal(err)
		}
		if tq > 0 {
			if cdf := bq.WaitingCDF(tq); !almostEqual(cdf, k, 1e-9) {
				t.Errorf("waiting CDF(quantile(%v)) = %v", k, cdf)
			}
		}
		tc, err := bq.SojournQuantile(k)
		if err != nil {
			t.Fatal(err)
		}
		if cdf := bq.SojournCDF(tc); !almostEqual(cdf, k, 1e-9) {
			t.Errorf("sojourn CDF(quantile(%v)) = %v", k, cdf)
		}
	}
	// Negative times.
	if v := bq.WaitingCDF(-1); v != 0 {
		t.Error("waiting CDF(-1) != 0")
	}
	if v := bq.SojournCDF(-1); v != 0 {
		t.Error("sojourn CDF(-1) != 0")
	}
}

func TestQuantileArgValidation(t *testing.T) {
	bq, _ := NewBatchQueue(mustExp(t, 10), 0, 100)
	for _, k := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := bq.WaitingQuantile(k); err == nil {
			t.Errorf("waiting quantile %v accepted", k)
		}
		if _, err := bq.SojournQuantile(k); err == nil {
			t.Errorf("sojourn quantile %v accepted", k)
		}
	}
}

func TestKeyLatencyBoundsOrdered(t *testing.T) {
	bq, err := NewBatchQueue(mustGP(t, 0.15, 56250), 0.1, 80000)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0.0; k < 1; k += 0.05 {
		lo, hi, err := bq.KeyLatencyBounds(k)
		if err != nil {
			t.Fatal(err)
		}
		if lo < 0 || hi < lo {
			t.Errorf("k=%v: bounds out of order lo=%v hi=%v", k, lo, hi)
		}
	}
}

func TestMeanSojourn(t *testing.T) {
	// M/M/1 with q=0: mean sojourn = 1/(mu - lambda).
	bq, _ := NewBatchQueue(mustExp(t, 50), 0, 100)
	if got := bq.MeanSojourn(); !almostEqual(got, 1.0/50, 1e-9) {
		t.Errorf("mean sojourn = %v, want 0.02", got)
	}
}

// Property: delta in (0,1) and quantiles non-negative and increasing in k
// across a range of stable parameterizations.
func TestPropertyDeltaAndQuantiles(t *testing.T) {
	f := func(rawXi, rawRho, rawQ float64) bool {
		xi := math.Abs(math.Mod(rawXi, 0.85))
		rho := 0.05 + math.Abs(math.Mod(rawRho, 0.88))
		q := math.Abs(math.Mod(rawQ, 0.5))
		muS := 80000.0
		keyRate := rho * muS
		gp, err := dist.NewGeneralizedPareto(xi, (1-q)*keyRate)
		if err != nil {
			return false
		}
		bq, err := NewBatchQueue(gp, q, muS)
		if err != nil {
			return false
		}
		delta := bq.Delta()
		if delta <= 0 || delta >= 1 {
			return false
		}
		prev := -1.0
		for k := 0.1; k < 1; k += 0.2 {
			v, err := bq.SojournQuantile(k)
			if err != nil || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
