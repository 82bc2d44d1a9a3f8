package dist

import (
	"math"
	"testing"
)

func TestGeneralizedParetoValidation(t *testing.T) {
	cases := []struct{ xi, lambda float64 }{
		{-0.1, 1}, {1, 1}, {1.5, 1}, {math.NaN(), 1}, {0.5, 0}, {0.5, -2},
	}
	for _, c := range cases {
		if _, err := NewGeneralizedPareto(c.xi, c.lambda); err == nil {
			t.Errorf("xi=%v lambda=%v accepted", c.xi, c.lambda)
		}
	}
}

func TestGeneralizedParetoMeanIsInverseLambda(t *testing.T) {
	for _, xi := range []float64{0, 0.15, 0.4, 0.8} {
		g, err := NewGeneralizedPareto(xi, 62500)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(g.Mean(), 1.0/62500, 1e-12) {
			t.Errorf("xi=%v: mean = %v", xi, g.Mean())
		}
		// Empirical mean check (heavy tails need many samples; keep xi<0.9
		// tolerance loose).
		tol := 0.02
		if xi > 0.5 {
			tol = 0.15
		}
		if got := sampleMean(g, 42, 500000); !almostEqual(got, g.Mean(), tol) {
			t.Errorf("xi=%v: sample mean %v vs %v", xi, got, g.Mean())
		}
	}
}

func TestGeneralizedParetoZeroXiIsExponential(t *testing.T) {
	g, _ := NewGeneralizedPareto(0, 5)
	e, _ := NewExponential(5)
	for _, x := range []float64{0.01, 0.1, 1, 3} {
		if !almostEqual(g.CDF(x), e.CDF(x), 1e-12) {
			t.Errorf("CDF(%v): gp %v vs exp %v", x, g.CDF(x), e.CDF(x))
		}
		if !almostEqual(g.LaplaceTransform(x), e.LaplaceTransform(x), 1e-12) {
			t.Errorf("L(%v): gp %v vs exp %v", x, g.LaplaceTransform(x), e.LaplaceTransform(x))
		}
	}
}

func TestGeneralizedParetoCDFMatchesPaperForm(t *testing.T) {
	// Paper eq. 24 with lambda = 62.5 Kps, xi = 0.15: spot-check a value.
	g, _ := NewGeneralizedPareto(0.15, 62500)
	tt := 16e-6 // one mean gap
	want := 1 - math.Pow(1+0.15*62500*tt/(1-0.15), -1/0.15)
	if got := g.CDF(tt); !almostEqual(got, want, 1e-12) {
		t.Errorf("CDF = %v, want %v", got, want)
	}
}

func TestGeneralizedParetoSurvivalComplement(t *testing.T) {
	g, _ := NewGeneralizedPareto(0.3, 10)
	for _, x := range []float64{0, 0.01, 0.1, 1} {
		if !almostEqual(g.CDF(x)+g.Survival(x), 1, 1e-12) {
			t.Errorf("CDF+Survival != 1 at %v", x)
		}
	}
}

func TestGeneralizedParetoTailHeavierWithXi(t *testing.T) {
	// At several gaps beyond the mean, survival should increase with xi.
	light, _ := NewGeneralizedPareto(0.1, 1)
	heavy, _ := NewGeneralizedPareto(0.6, 1)
	for _, x := range []float64{3.0, 5, 10} {
		if heavy.Survival(x) <= light.Survival(x) {
			t.Errorf("at t=%v heavier tail not heavier: %v <= %v",
				x, heavy.Survival(x), light.Survival(x))
		}
	}
}

func TestGeneralizedParetoLaplaceEdges(t *testing.T) {
	g, _ := NewGeneralizedPareto(0.15, 62500)
	if g.LaplaceTransform(0) != 1 {
		t.Error("L(0) != 1")
	}
	if g.LaplaceTransform(-5) != 1 {
		t.Error("L(s<0) should clamp to 1")
	}
	// L decreasing towards 0 for large s.
	if g.LaplaceTransform(1e9) > 0.01 {
		t.Error("L(huge) not near 0")
	}
}
