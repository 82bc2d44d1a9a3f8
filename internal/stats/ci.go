package stats

import (
	"fmt"
	"math"
)

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Point float64
	Lo    float64
	Hi    float64
	Level float64 // confidence level, e.g. 0.95
}

// String renders the interval like the paper's Table 3, e.g.
// "867µs [855µs, 879µs]" when formatted by the caller; here plain numbers.
func (iv Interval) String() string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] @%g%%", iv.Point, iv.Lo, iv.Hi, iv.Level*100)
}

// HistMeanCI computes a normal-approximation confidence interval for
// the mean of the observations recorded in a histogram (which tracks
// exact streaming moments alongside its buckets). With fewer than 2
// samples the interval collapses to the point estimate.
func HistMeanCI(h *Histogram, level float64) Interval {
	point := h.Mean()
	var se float64
	if n := h.Count(); n > 0 {
		se = h.StdDev() / math.Sqrt(float64(n))
	}
	half := zQuantile(level) * se
	return Interval{Point: point, Lo: point - half, Hi: point + half, Level: level}
}

// zQuantile returns the two-sided standard-normal critical value for the
// given confidence level (e.g. 0.95 -> 1.96).
func zQuantile(level float64) float64 {
	if level <= 0 || level >= 1 {
		return 0
	}
	p := 1 - (1-level)/2
	return normQuantile(p)
}

// normQuantile inverts the standard normal CDF using the
// Beasley–Springer–Moro / Acklam rational approximation (relative error
// below 1.15e-9 over the full domain).
func normQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00}
	)
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// NormCDF evaluates the standard normal cumulative distribution.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
