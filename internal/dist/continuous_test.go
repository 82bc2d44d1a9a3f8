package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	// Relative comparison with a tiny absolute floor so that
	// microsecond-scale quantities are compared meaningfully.
	return math.Abs(a-b) <= tol*math.Max(1e-15, math.Max(math.Abs(a), math.Abs(b)))
}

// sampleMean estimates the mean of a sampler with n draws.
func sampleMean(s Sampler, seed uint64, n int) float64 {
	rng := NewRand(seed)
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Sample(rng)
	}
	return sum / float64(n)
}

func TestExponentialBasics(t *testing.T) {
	e, err := NewExponential(80000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e.Mean(), 1.25e-5, 1e-12) {
		t.Errorf("mean = %v", e.Mean())
	}
	if !almostEqual(e.CDF(e.Mean()), 1-1/math.E, 1e-9) {
		t.Errorf("CDF(mean) = %v", e.CDF(e.Mean()))
	}
	if e.CDF(-1) != 0 {
		t.Error("CDF negative != 0")
	}
	if got := e.LaplaceTransform(80000); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("L(rate) = %v, want 0.5", got)
	}
	if !almostEqual(sampleMean(e, 1, 200000), e.Mean(), 0.02) {
		t.Error("sample mean far from analytic mean")
	}
}

func TestExponentialValidation(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewExponential(rate); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
}

func TestDeterministic(t *testing.T) {
	d, err := NewDeterministic(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Sample(NewRand(1)) != 0.5 || d.Mean() != 0.5 {
		t.Error("deterministic sample/mean wrong")
	}
	if d.CDF(0.49) != 0 || d.CDF(0.5) != 1 {
		t.Error("deterministic CDF step wrong")
	}
	if !almostEqual(d.LaplaceTransform(2), math.Exp(-1), 1e-12) {
		t.Error("deterministic transform wrong")
	}
	if _, err := NewDeterministic(-1); err == nil {
		t.Error("negative value accepted")
	}
}

func TestErlang(t *testing.T) {
	e, err := NewErlang(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e.Mean(), 0.5, 1e-12) {
		t.Errorf("mean = %v", e.Mean())
	}
	if !almostEqual(sampleMean(e, 2, 100000), 0.5, 0.02) {
		t.Error("sample mean off")
	}
	// Erlang(1) must coincide with exponential.
	e1, _ := NewErlang(1, 3)
	exp1, _ := NewExponential(3)
	for _, x := range []float64{0.1, 0.5, 2} {
		if !almostEqual(e1.CDF(x), exp1.CDF(x), 1e-12) {
			t.Errorf("Erlang(1).CDF(%v) != Exp.CDF", x)
		}
		if !almostEqual(e1.LaplaceTransform(x), exp1.LaplaceTransform(x), 1e-12) {
			t.Errorf("Erlang(1).L(%v) != Exp.L", x)
		}
	}
	if _, err := NewErlang(0, 1); err == nil {
		t.Error("shape 0 accepted")
	}
	if _, err := NewErlang(2, 0); err == nil {
		t.Error("rate 0 accepted")
	}
}

func TestHyperexponential(t *testing.T) {
	h, err := NewHyperexponential([]float64{0.5, 0.5}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	wantMean := 0.5 + 0.5/3
	if !almostEqual(h.Mean(), wantMean, 1e-12) {
		t.Errorf("mean = %v, want %v", h.Mean(), wantMean)
	}
	if !almostEqual(sampleMean(h, 3, 200000), wantMean, 0.02) {
		t.Error("sample mean off")
	}
	wantL := 0.5*1/(1+2.0) + 0.5*3/(3+2.0)
	if !almostEqual(h.LaplaceTransform(2), wantL, 1e-12) {
		t.Errorf("L(2) = %v, want %v", h.LaplaceTransform(2), wantL)
	}
	// Degenerate single-phase hyperexp equals the exponential.
	h1, _ := NewHyperexponential([]float64{1}, []float64{5})
	e, _ := NewExponential(5)
	if !almostEqual(h1.CDF(0.2), e.CDF(0.2), 1e-12) {
		t.Error("single-phase hyperexp != exponential")
	}
}

func TestHyperexponentialValidation(t *testing.T) {
	cases := []struct {
		probs, rates []float64
	}{
		{nil, nil},
		{[]float64{0.5}, []float64{1, 2}},
		{[]float64{0.5, 0.4}, []float64{1, 2}},  // probs sum 0.9
		{[]float64{-0.5, 1.5}, []float64{1, 2}}, // negative prob
		{[]float64{0.5, 0.5}, []float64{1, 0}},  // zero rate
	}
	for i, c := range cases {
		if _, err := NewHyperexponential(c.probs, c.rates); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLogNormal(t *testing.T) {
	l, err := NewLogNormal(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(l.Mean(), math.Exp(0.125), 1e-12) {
		t.Errorf("mean = %v", l.Mean())
	}
	if !almostEqual(sampleMean(l, 4, 300000), l.Mean(), 0.02) {
		t.Error("sample mean off")
	}
	if !almostEqual(l.CDF(1), 0.5, 1e-9) { // median = e^mu = 1
		t.Errorf("CDF(median) = %v", l.CDF(1))
	}
	if l.CDF(0) != 0 {
		t.Error("CDF(0) != 0")
	}
	if _, err := NewLogNormal(0, 0); err == nil {
		t.Error("sigma 0 accepted")
	}
}

// TestLogNormalMean: the mean-and-shape constructor keeps the mean it is
// given and puts the median at e^Mu = mean·e^(−σ²/2).
func TestLogNormalMean(t *testing.T) {
	l, err := NewLogNormalMean(0.002, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(l.Mean(), 0.002, 1e-12) || l.Sigma != 0.5 {
		t.Errorf("NewLogNormalMean(0.002, 0.5) = %+v, mean %v", l, l.Mean())
	}
	if !almostEqual(l.CDF(0.002*math.Exp(-0.125)), 0.5, 1e-9) {
		t.Errorf("CDF(mean·e^(−σ²/2)) = %v, want 0.5", l.CDF(0.002*math.Exp(-0.125)))
	}
	for _, c := range [][2]float64{{0, 0.5}, {-1, 0.5}, {math.Inf(1), 0.5}, {math.NaN(), 0.5}, {1, 0}} {
		if _, err := NewLogNormalMean(c[0], c[1]); err == nil {
			t.Errorf("NewLogNormalMean(%v, %v) accepted", c[0], c[1])
		}
	}
}

// Property: every Interarrival's CDF is within [0,1], non-decreasing, and
// the Laplace transform is within (0,1], non-increasing in s.
func TestPropertyInterarrivalLaws(t *testing.T) {
	e, _ := NewExponential(2)
	d, _ := NewDeterministic(0.7)
	er, _ := NewErlang(3, 5)
	h, _ := NewHyperexponential([]float64{0.3, 0.7}, []float64{0.5, 4})
	g, _ := NewGeneralizedPareto(0.3, 2)
	dists := []Interarrival{e, d, er, h, g}
	f := func(rawT, rawS float64) bool {
		tv := math.Abs(math.Mod(rawT, 10))
		sv := math.Abs(math.Mod(rawS, 10))
		for _, dd := range dists {
			c1, c2 := dd.CDF(tv), dd.CDF(tv+0.1)
			if c1 < 0 || c1 > 1 || c2 < c1-1e-12 {
				return false
			}
			l1, l2 := dd.LaplaceTransform(sv), dd.LaplaceTransform(sv+0.1)
			if l1 <= 0 || l1 > 1 || l2 > l1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: L(s) ≈ E[e^{-sT}] estimated by Monte Carlo, for each family.
func TestLaplaceMatchesMonteCarlo(t *testing.T) {
	e, _ := NewExponential(3)
	er, _ := NewErlang(2, 4)
	h, _ := NewHyperexponential([]float64{0.4, 0.6}, []float64{1, 5})
	g, _ := NewGeneralizedPareto(0.15, 2)
	l, _ := NewLogNormal(-1, 0.7)
	dists := map[string]Interarrival{
		"exp": e, "erlang": er, "hyperexp": h, "gpareto": g, "lognormal": l,
	}
	for name, d := range dists {
		t.Run(name, func(t *testing.T) {
			rng := NewRand(99)
			const n = 200000
			for _, s := range []float64{0.5, 2, 8} {
				var mc float64
				for i := 0; i < n; i++ {
					mc += math.Exp(-s * d.Sample(rng))
				}
				mc /= n
				if got := d.LaplaceTransform(s); !almostEqual(got, mc, 0.02) {
					t.Errorf("L(%v) = %v, Monte Carlo %v", s, got, mc)
				}
			}
		})
	}
}

func TestSubRandIndependence(t *testing.T) {
	a := SubRand(1, 0)
	b := SubRand(1, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("substreams collide %d/100 times", same)
	}
	// Determinism: same (seed, id) yields the same stream.
	c, d := SubRand(7, 3), SubRand(7, 3)
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("SubRand not deterministic")
		}
	}
}
