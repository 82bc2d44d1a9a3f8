package stats

import (
	"math"
	"math/rand/v2"
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

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if m.Count() != 0 || m.Mean() != 0 || m.Variance() != 0 {
		t.Fatalf("zero-value moments not empty: %v", m.String())
	}
	if m.Min() != 0 || m.Max() != 0 {
		t.Fatalf("empty min/max should be 0")
	}
}

func TestMomentsKnownValues(t *testing.T) {
	tests := []struct {
		name     string
		give     []float64
		wantMean float64
		wantVar  float64
	}{
		{name: "single", give: []float64{5}, wantMean: 5, wantVar: 0},
		{name: "pair", give: []float64{2, 4}, wantMean: 3, wantVar: 2},
		{name: "constant", give: []float64{7, 7, 7, 7}, wantMean: 7, wantVar: 0},
		{name: "mixed", give: []float64{1, 2, 3, 4, 5}, wantMean: 3, wantVar: 2.5},
		{name: "negatives", give: []float64{-1, 1}, wantMean: 0, wantVar: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var m Moments
			for _, x := range tt.give {
				m.Add(x)
			}
			if !almostEqual(m.Mean(), tt.wantMean, 1e-12) {
				t.Errorf("mean = %v, want %v", m.Mean(), tt.wantMean)
			}
			if !almostEqual(m.Variance(), tt.wantVar, 1e-12) {
				t.Errorf("variance = %v, want %v", m.Variance(), tt.wantVar)
			}
			if m.Count() != int64(len(tt.give)) {
				t.Errorf("count = %d, want %d", m.Count(), len(tt.give))
			}
		})
	}
}

func TestMomentsMinMax(t *testing.T) {
	var m Moments
	for _, x := range []float64{3, -2, 9, 0.5} {
		m.Add(x)
	}
	if m.Min() != -2 || m.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want -2/9", m.Min(), m.Max())
	}
}

func TestMomentsMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var a, b, all Moments
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 1
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d != %d", a.Count(), all.Count())
	}
	if !almostEqual(a.Mean(), all.Mean(), 1e-10) {
		t.Errorf("merged mean %v != %v", a.Mean(), all.Mean())
	}
	if !almostEqual(a.Variance(), all.Variance(), 1e-10) {
		t.Errorf("merged variance %v != %v", a.Variance(), all.Variance())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Errorf("merged min/max mismatch")
	}
}

func TestMomentsMergeEmptySides(t *testing.T) {
	var a, b Moments
	b.Add(4)
	a.Merge(b) // empty receiver
	if a.Count() != 1 || a.Mean() != 4 {
		t.Fatalf("merge into empty failed: %s", a.String())
	}
	var empty Moments
	a.Merge(empty) // empty argument
	if a.Count() != 1 || a.Mean() != 4 {
		t.Fatalf("merge of empty changed state: %s", a.String())
	}
}

func TestMomentsReset(t *testing.T) {
	var m Moments
	m.Add(1)
	m.Reset()
	if m.Count() != 0 || m.Mean() != 0 {
		t.Fatalf("reset did not clear state")
	}
}

// Property: mean always lies within [min, max] and variance is
// non-negative, for any input vector.
func TestMomentsPropertyBounds(t *testing.T) {
	f := func(xs []float64) bool {
		var m Moments
		ok := true
		for _, x := range xs {
			// Skip values whose squares overflow float64: Welford's m2
			// accumulator legitimately saturates there.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				continue
			}
			m.Add(x)
		}
		if m.Count() == 0 {
			return true
		}
		if m.Variance() < 0 {
			ok = false
		}
		if m.Mean() < m.Min()-1e-9 || m.Mean() > m.Max()+1e-9 {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Merge is order-insensitive in its result (commutative up to
// floating-point noise).
func TestMomentsPropertyMergeCommutative(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(in []float64) []float64 {
			var out []float64
			for _, x := range in {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
					out = append(out, x)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a1, b1, a2, b2 Moments
		for _, x := range xs {
			a1.Add(x)
			a2.Add(x)
		}
		for _, y := range ys {
			b1.Add(y)
			b2.Add(y)
		}
		a1.Merge(b1)
		b2.Merge(a2)
		return a1.Count() == b2.Count() &&
			almostEqual(a1.Mean(), b2.Mean(), 1e-9) &&
			almostEqual(a1.Variance(), b2.Variance(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
