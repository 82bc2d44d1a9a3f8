package queueing

import (
	"fmt"
	"math"
)

// FindRoot returns x in [lo, hi] with f(x) = 0, given that f(lo) and
// f(hi) differ in sign, by Brent's method: inverse quadratic or secant
// interpolation while it converges, bisection whenever it does not, so
// the bracket always shrinks and the root is never left. The result is
// within 4ε|x| + tol of a sign change of f (tol = 0 asks for machine
// precision). f may be discontinuous and may return ±Inf where only its
// sign is known: an interpolated step that is not a number, or does not
// land well inside the bracket, is replaced by a bisection step.
//
// Every root the model needs — eq. 6's δ, the Theorem 1 quantiles, the
// Table 4 cliff, the planner inversions — goes through this one solver.
func FindRoot(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	a, b := lo, hi
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.IsNaN(fa) || math.IsNaN(fb) || (fa > 0) == (fb > 0) {
		return 0, fmt.Errorf("queueing: root not bracketed: f(%g)=%g, f(%g)=%g", lo, fa, hi, fb)
	}
	// b is the best estimate so far, c the last point of opposite sign
	// (so the root lies between b and c), a the previous b. d is the
	// step about to be taken, e the one before it.
	c, fc := a, fa
	d := b - a
	e := d
	for i := 0; i < maxRootSteps; i++ {
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d = b - a
			e = d
		}
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*epsilon*math.Abs(b) + tol/2
		m := (c - b) / 2
		if math.Abs(m) <= tol1 || fb == 0 {
			return b, nil
		}
		// Interpolate only while the step before last was large enough
		// and the last one made progress. Every comparison below is
		// false for a NaN (f infinite at both points), which bisects.
		bisect := true
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			var p, q float64
			s := fb / fa
			if a == c {
				p, q = 2*m*s, 1-s
			} else {
				r, t := fb/fc, fa/fc
				p = s * (2*m*t*(t-r) - (b-a)*(r-1))
				q = (t - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			if 2*p < math.Min(3*m*q-math.Abs(tol1*q), math.Abs(e*q)) {
				e, d = d, p/q
				bisect = false
			}
		}
		if bisect {
			d, e = m, m
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			b += math.Copysign(tol1, m)
		}
		fb = f(b)
	}
	return 0, fmt.Errorf("queueing: root in [%g, %g] not found in %d steps", lo, hi, maxRootSteps)
}

const (
	// epsilon is the float64 machine epsilon, 2^-52.
	epsilon = 1.0 / (1 << 52)
	// maxRootSteps is never reached by a real-valued f (Brent's bound
	// is the square of the bisection count, under 3000 for float64);
	// it stops an f that returns NaN mid-search.
	maxRootSteps = 4096
)
