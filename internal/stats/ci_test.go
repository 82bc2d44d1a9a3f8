package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestNormQuantileKnownValues(t *testing.T) {
	tests := []struct {
		give float64
		want float64
	}{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.025, -1.959964},
		{0.84134, 1.0},
	}
	for _, tt := range tests {
		got := normQuantile(tt.give)
		if !almostEqual(got, tt.want, 1e-3) {
			t.Errorf("normQuantile(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
	if !math.IsInf(normQuantile(0), -1) || !math.IsInf(normQuantile(1), 1) {
		t.Error("edge quantiles should be infinite")
	}
}

func TestNormQuantileInvertsCDF(t *testing.T) {
	for p := 0.001; p < 1; p += 0.037 {
		x := normQuantile(p)
		if !almostEqual(NormCDF(x), p, 1e-6) {
			t.Errorf("CDF(quantile(%v)) = %v", p, NormCDF(x))
		}
	}
}

func TestZQuantile(t *testing.T) {
	if got := zQuantile(0.95); !almostEqual(got, 1.96, 1e-2) {
		t.Errorf("z(0.95) = %v", got)
	}
	if got := zQuantile(0.99); !almostEqual(got, 2.576, 1e-2) {
		t.Errorf("z(0.99) = %v", got)
	}
	if zQuantile(0) != 0 || zQuantile(1) != 0 {
		t.Error("invalid levels should give 0")
	}
}

func TestMeanCICoverage(t *testing.T) {
	// Over many resamples of a known-mean population, the 95% CI should
	// contain the true mean roughly 95% of the time.
	rng := rand.New(rand.NewPCG(21, 22))
	const trueMean = 10.0
	hits, trials := 0, 400
	for i := 0; i < trials; i++ {
		h := NewHistogram()
		for j := 0; j < 200; j++ {
			h.Record(trueMean + rng.NormFloat64()*4)
		}
		if iv := HistMeanCI(h, 0.95); iv.Lo <= trueMean && trueMean <= iv.Hi {
			hits++
		}
	}
	rate := float64(hits) / float64(trials)
	if rate < 0.90 || rate > 0.99 {
		t.Errorf("CI coverage = %v, want ~0.95", rate)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Point: 5, Lo: 4, Hi: 6, Level: 0.95}
	if iv.String() == "" {
		t.Error("empty String()")
	}
}

func TestMeanCISingleSample(t *testing.T) {
	h := NewHistogram()
	h.Record(3)
	iv := HistMeanCI(h, 0.95)
	if iv.Lo != 3 || iv.Hi != 3 {
		t.Errorf("single-sample CI should collapse: %v", iv)
	}
}
