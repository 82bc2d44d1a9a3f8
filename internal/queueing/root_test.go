package queueing

import (
	"math"
	"testing"

	"memqlat/internal/dist"
)

func TestFindRoot(t *testing.T) {
	tests := []struct {
		name   string
		f      func(float64) float64
		lo, hi float64
		want   float64
	}{
		{"linear", func(x float64) float64 { return 2*x - 1 }, 0, 1, 0.5},
		{"decreasing", func(x float64) float64 { return 1 - x*x }, 0, 3, 1},
		{"cubic flat at the root", func(x float64) float64 { return (x - 1) * (x - 1) * (x - 1) }, -2, 5, 1},
		{"transcendental", func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 0.7390851332151607},
		{"log singular at lo", func(x float64) float64 { return math.Log(x) + 3 }, 0, 1, math.Exp(-3)},
		{"root at lo", func(x float64) float64 { return x }, 0, 1, 0},
		{"root at hi", func(x float64) float64 { return x - 1 }, 0, 1, 1},
		// Only the sign is known on one side or both: what the planner
		// inversions pass when a trial configuration is unstable.
		{"infinite above", func(x float64) float64 {
			if x > 0.3 {
				return math.Inf(1)
			}
			return x - 1
		}, 0, 1, 0.3},
		{"infinite both sides", func(x float64) float64 {
			return math.Copysign(math.Inf(1), x-0.7)
		}, 0, 1, 0.7},
	}
	for _, tt := range tests {
		var calls int
		got, err := FindRoot(func(x float64) float64 { calls++; return tt.f(x) }, tt.lo, tt.hi, 1e-14)
		if err != nil {
			t.Errorf("%s: %v", tt.name, err)
			continue
		}
		if math.Abs(got-tt.want) > 1e-13 {
			t.Errorf("%s: root = %.17g, want %.17g", tt.name, got, tt.want)
		}
		// 47 bisection steps reach 1e-14 on a unit bracket; Brent's
		// worst case is a small multiple of that, its usual case ~10.
		if calls > 150 {
			t.Errorf("%s: %d evaluations", tt.name, calls)
		}
	}
}

func TestFindRootMachinePrecision(t *testing.T) {
	got, err := FindRoot(func(x float64) float64 { return x*x - 2e-8 }, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Sqrt(2e-8); math.Abs(got-want) > 4e-16*want {
		t.Errorf("root = %.17g, want %.17g", got, want)
	}
}

func TestFindRootNotBracketed(t *testing.T) {
	for _, f := range []func(float64) float64{
		func(x float64) float64 { return x + 1 },
		func(x float64) float64 { return -x - 1 },
		func(x float64) float64 { return math.NaN() },
	} {
		if _, err := FindRoot(f, 0, 1, 1e-14); err == nil {
			t.Error("unbracketed root accepted")
		}
	}
}

// bisectDelta is the solver BatchQueue used before FindRoot — 200
// halvings of h(δ) = δ − L_TX((1−δ)µ_B) with a 1e-14 exit — kept as the
// reference the shared solver is checked against.
func bisectDelta(arr dist.Interarrival, muB float64) float64 {
	lo, hi := 0.0, 1-1e-12
	for i := 0; i < 200 && hi-lo >= 1e-14; i++ {
		mid := (lo + hi) / 2
		if mid-arr.LaplaceTransform((1-mid)*muB) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func TestDeltaMatchesBisection(t *testing.T) {
	const muS = 80000.0
	for _, xi := range []float64{0, 0.15, 0.5, 0.8} {
		for _, q := range []float64{0, 0.1, 0.5} {
			for _, rho := range []float64{0.05, 0.2, 0.4, 0.6, 0.78125, 0.9, 0.95, 0.99} {
				gp := mustGP(t, xi, (1-q)*rho*muS)
				bq, err := NewBatchQueue(gp, q, muS)
				if err != nil {
					t.Fatalf("xi=%v q=%v rho=%v: %v", xi, q, rho, err)
				}
				ref := bisectDelta(gp, bq.BatchServiceRate())
				if math.Abs(bq.Delta()-ref) > 1e-12 {
					t.Errorf("xi=%v q=%v rho=%v: delta = %.16g, bisection = %.16g",
						xi, q, rho, bq.Delta(), ref)
				}
			}
		}
	}
}
