// Package stats provides streaming statistics, latency histograms,
// confidence intervals and curve-analysis helpers used throughout the
// memqlat simulator, load generator and experiment harness.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoSamples is returned by estimators that require at least one sample.
var ErrNoSamples = errors.New("stats: no samples")

// Moments accumulates count, mean and variance of a stream of float64
// observations using Welford's numerically stable online algorithm.
// The zero value is ready to use.
type Moments struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (m *Moments) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// Merge folds other into m, producing the moments of the concatenated
// streams (Chan et al. parallel variance combination).
func (m *Moments) Merge(other Moments) {
	if other.n == 0 {
		return
	}
	if m.n == 0 {
		*m = other
		return
	}
	n := m.n + other.n
	delta := other.mean - m.mean
	m.mean += delta * float64(other.n) / float64(n)
	m.m2 += other.m2 + delta*delta*float64(m.n)*float64(other.n)/float64(n)
	if other.min < m.min {
		m.min = other.min
	}
	if other.max > m.max {
		m.max = other.max
	}
	m.n = n
}

// Count reports the number of observations.
func (m *Moments) Count() int64 { return m.n }

// Mean reports the sample mean (0 when empty).
func (m *Moments) Mean() float64 { return m.mean }

// Min reports the smallest observation (0 when empty).
func (m *Moments) Min() float64 {
	if m.n == 0 {
		return 0
	}
	return m.min
}

// Max reports the largest observation (0 when empty).
func (m *Moments) Max() float64 {
	if m.n == 0 {
		return 0
	}
	return m.max
}

// Variance reports the unbiased sample variance (0 with <2 samples).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev reports the unbiased sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Reset discards all state.
func (m *Moments) Reset() { *m = Moments{} }

// String implements fmt.Stringer for debugging output.
func (m *Moments) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		m.n, m.Mean(), m.StdDev(), m.Min(), m.Max())
}
