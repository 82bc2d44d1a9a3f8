package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeometricBatchValidation(t *testing.T) {
	for _, q := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := NewGeometricBatch(q); err == nil {
			t.Errorf("q=%v accepted", q)
		}
	}
}

func TestGeometricBatchZeroQ(t *testing.T) {
	g, err := NewGeometricBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(1)
	for i := 0; i < 100; i++ {
		if got := g.SampleInt(rng); got != 1 {
			t.Fatalf("q=0 batch size = %d, want 1", got)
		}
	}
	if g.Mean() != 1 {
		t.Errorf("mean = %v", g.Mean())
	}
}

func TestGeometricBatchMean(t *testing.T) {
	g, _ := NewGeometricBatch(0.1) // the paper's Facebook workload
	if !almostEqual(g.Mean(), 1/0.9, 1e-12) {
		t.Errorf("mean = %v", g.Mean())
	}
	// Empirical mean.
	rng := NewRand(2)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(g.SampleInt(rng))
	}
	if !almostEqual(sum/n, g.Mean(), 0.01) {
		t.Errorf("empirical mean %v vs %v", sum/n, g.Mean())
	}
}

// Property: batch sizes are always >= 1 for any valid q.
func TestGeometricBatchPropertyPositive(t *testing.T) {
	f := func(rawQ float64, seed uint64) bool {
		q := math.Abs(math.Mod(rawQ, 0.999))
		g, err := NewGeometricBatch(q)
		if err != nil {
			return false
		}
		rng := NewRand(seed)
		for i := 0; i < 50; i++ {
			if g.SampleInt(rng) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Error("negative exponent accepted")
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z, err := NewZipf(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !almostEqual(z.Prob(i), 0.25, 1e-12) {
			t.Errorf("prob(%d) = %v", i, z.Prob(i))
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if z.Prob(0) <= z.Prob(1) || z.Prob(1) <= z.Prob(10) {
		t.Error("zipf probabilities not decreasing")
	}
	// Empirical frequency of rank 0 matches Prob(0).
	rng := NewRand(5)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if z.SampleInt(rng) == 0 {
			hits++
		}
	}
	if !almostEqual(float64(hits)/n, z.Prob(0), 0.05) {
		t.Errorf("empirical p0 %v vs %v", float64(hits)/n, z.Prob(0))
	}
	if z.Prob(-1) != 0 || z.Prob(1000) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

func TestWeightedValidation(t *testing.T) {
	if _, err := NewWeighted(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewWeighted([]float64{0, 0}); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := NewWeighted([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestWeightedProbabilities(t *testing.T) {
	w, err := NewWeighted([]float64{3, 1}) // p = {0.75, 0.25}
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(6)
	counts := make([]int, 2)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[w.SampleInt(rng)]++
	}
	if !almostEqual(float64(counts[0])/n, 0.75, 0.02) {
		t.Errorf("empirical p0 = %v", float64(counts[0])/n)
	}
}

func TestWeightedZeroWeightNeverSampled(t *testing.T) {
	w, err := NewWeighted([]float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(7)
	for i := 0; i < 10000; i++ {
		if w.SampleInt(rng) == 1 {
			t.Fatal("zero-weight category sampled")
		}
	}
}

// Property: the Weighted CDF ends at 1 regardless of scaling.
func TestWeightedPropertyNormalized(t *testing.T) {
	f := func(raw []float64) bool {
		var weights []float64
		for _, r := range raw {
			w := math.Abs(math.Mod(r, 100))
			if !math.IsNaN(w) {
				weights = append(weights, w)
			}
		}
		wd, err := NewWeighted(weights)
		if err != nil {
			return true // invalid inputs are allowed to be rejected
		}
		return almostEqual(wd.cdf[len(wd.cdf)-1], 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSamplePoisson(t *testing.T) {
	rng := NewRand(31)
	for _, mean := range []float64{0, 0.5, 5, 50, 5000} {
		var sum, sumSq float64
		const n = 50000
		for i := 0; i < n; i++ {
			k := float64(SamplePoisson(rng, mean))
			sum += k
			sumSq += k * k
		}
		got := sum / n
		if mean == 0 {
			if got != 0 {
				t.Errorf("Poisson(0) mean = %v", got)
			}
			continue
		}
		if !almostEqual(got, mean, 0.05) {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
		variance := sumSq/n - got*got
		if !almostEqual(variance, mean, 0.1) {
			t.Errorf("Poisson(%v) variance = %v", mean, variance)
		}
	}
}

func TestSampleBinomial(t *testing.T) {
	rng := NewRand(32)
	cases := []struct {
		n int64
		p float64
	}{
		{0, 0.5}, {10, 0}, {10, 1}, {100, 0.3}, {10000, 0.01}, {1000000, 0.001}, {100000, 0.4},
	}
	for _, c := range cases {
		var sum float64
		const trials = 20000
		for i := 0; i < trials; i++ {
			k := SampleBinomial(rng, c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("Binomial(%d,%v) out of range: %d", c.n, c.p, k)
			}
			sum += float64(k)
		}
		want := float64(c.n) * c.p
		if want == 0 {
			if sum != 0 {
				t.Errorf("Binomial(%d,%v) nonzero", c.n, c.p)
			}
			continue
		}
		if c.p >= 1 {
			if sum/trials != float64(c.n) {
				t.Errorf("Binomial(n,1) != n")
			}
			continue
		}
		if !almostEqual(sum/trials, want, 0.05) {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v", c.n, c.p, sum/trials, want)
		}
	}
}

func TestSampleMaxExponential(t *testing.T) {
	rng := NewRand(33)
	// Mean of max of k exponentials = H_k / rate.
	for _, k := range []int64{1, 5, 100} {
		var sum float64
		const n = 100000
		for i := 0; i < n; i++ {
			sum += SampleMaxExponential(rng, 1000, k)
		}
		var hk float64
		for i := int64(1); i <= k; i++ {
			hk += 1 / float64(i)
		}
		want := hk / 1000
		if !almostEqual(sum/n, want, 0.03) {
			t.Errorf("max of %d: mean = %v, want %v", k, sum/n, want)
		}
	}
	if SampleMaxExponential(rng, 1000, 0) != 0 {
		t.Error("k=0 should be 0")
	}
	if SampleMaxExponential(rng, 0, 5) != 0 {
		t.Error("rate=0 should be 0")
	}
}
