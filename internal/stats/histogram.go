package stats

import (
	"fmt"
	"math"
)

// Histogram is a log-bucketed latency histogram in the spirit of
// HdrHistogram: values are bucketed with bounded relative error so that
// quantiles over many orders of magnitude stay accurate while memory use
// stays constant. Values are non-negative float64 (typically seconds).
//
// The zero value is not usable; construct with NewHistogram.
type Histogram struct {
	// growth is the per-bucket geometric growth factor (> 1).
	growth float64
	// logGrowth caches math.Log(growth).
	logGrowth float64
	// smallest is the lower bound of bucket index 1. Values in
	// [0, smallest) land in bucket 0.
	smallest float64
	counts   []int64
	moments  Moments
}

// Default bucketing: 1% relative error starting at 1 nanosecond
// (expressed in seconds), which covers sub-ns to years in ~4600 buckets.
const (
	defaultGrowth   = 1.02
	defaultSmallest = 1e-9
)

// NewHistogram returns a histogram with ~1% quantile resolution for
// values >= 1 ns (values in seconds).
func NewHistogram() *Histogram {
	h, err := NewHistogramWith(defaultSmallest, defaultGrowth)
	if err != nil {
		// Static parameters are known-valid; this cannot happen.
		panic(err)
	}
	return h
}

// NewHistogramWith returns a histogram whose bucket boundaries grow
// geometrically by growth starting at smallest. growth must exceed 1 and
// smallest must be positive.
func NewHistogramWith(smallest, growth float64) (*Histogram, error) {
	if !(growth > 1) {
		return nil, fmt.Errorf("stats: histogram growth %v must be > 1", growth)
	}
	if !(smallest > 0) {
		return nil, fmt.Errorf("stats: histogram smallest %v must be > 0", smallest)
	}
	return &Histogram{
		growth:    growth,
		logGrowth: math.Log(growth),
		smallest:  smallest,
	}, nil
}

// bucketIndex maps a value to its bucket.
func (h *Histogram) bucketIndex(v float64) int {
	if v < h.smallest {
		return 0
	}
	return 1 + int(math.Log(v/h.smallest)/h.logGrowth)
}

// bucketUpper returns the (exclusive) upper boundary of bucket i.
func (h *Histogram) bucketUpper(i int) float64 {
	if i == 0 {
		return h.smallest
	}
	return h.smallest * math.Pow(h.growth, float64(i))
}

// bucketMid returns a representative value for bucket i (geometric
// midpoint for i > 0).
func (h *Histogram) bucketMid(i int) float64 {
	if i == 0 {
		return h.smallest / 2
	}
	lo := h.bucketUpper(i - 1)
	hi := h.bucketUpper(i)
	return math.Sqrt(lo * hi)
}

// Record adds a single observation. This is the one rule for bad
// samples, whichever recorder (Sketch stripe, Collector, server) they
// arrive through: a negative or NaN value is counted, as zero — a
// corrupted input cannot poison the quantiles or the mean, but it still
// shows in Count, so a stage that emits garbage is not silently quiet.
func (h *Histogram) Record(v float64) {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	i := h.bucketIndex(v)
	if i >= len(h.counts) {
		h.grow(i + 1)
	}
	h.counts[i]++
	h.moments.Add(v)
}

// grow extends counts to n buckets. Capacity grows by a quarter, so a
// rising run of samples reallocates O(log n) times instead of once per
// new top bucket, while a server's ~100 histograms carry at most 25 %
// slack (doubling showed up in the benchmark's live heap). Nothing ever
// writes past len and Reset zeroes in place, so re-slicing within
// capacity exposes only zeros.
func (h *Histogram) grow(n int) {
	if n <= cap(h.counts) {
		h.counts = h.counts[:n]
		return
	}
	grown := make([]int64, n, max(n, cap(h.counts)+cap(h.counts)/4))
	copy(grown, h.counts)
	h.counts = grown
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() int64 { return h.moments.Count() }

// Mean reports the exact (not bucketed) mean of recorded observations.
func (h *Histogram) Mean() float64 { return h.moments.Mean() }

// StdDev reports the exact sample standard deviation.
func (h *Histogram) StdDev() float64 { return h.moments.StdDev() }

// Min reports the smallest recorded observation.
func (h *Histogram) Min() float64 { return h.moments.Min() }

// Max reports the largest recorded observation.
func (h *Histogram) Max() float64 { return h.moments.Max() }

// rankBucket returns the bucket holding the q-th quantile's observation
// (1-based rank ceil(q*n), clamped to [1,n]), or len(counts) when the
// counts fall short of the rank. It returns ErrNoSamples when the
// histogram is empty and an error for q outside [0, 1].
func (h *Histogram) rankBucket(q float64) (int, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	total := h.Count()
	if total == 0 {
		return 0, ErrNoSamples
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return i, nil
		}
	}
	return len(h.counts), nil
}

// Quantile returns an estimate of the q-th quantile, q in [0, 1].
// It returns ErrNoSamples when the histogram is empty and an error for
// q outside [0, 1].
func (h *Histogram) Quantile(q float64) (float64, error) {
	i, err := h.rankBucket(q)
	if err != nil {
		return 0, err
	}
	if i == len(h.counts) {
		return h.Max(), nil
	}
	// Clamp to the observed range: exact min/max beat bucket midpoints
	// at the extremes.
	return clamp(h.bucketMid(i), h.Min(), h.Max()), nil
}

// MustQuantile is Quantile for static q known to be valid; it returns 0
// for an empty histogram.
func (h *Histogram) MustQuantile(q float64) float64 {
	v, err := h.Quantile(q)
	if err != nil {
		return 0
	}
	return v
}

// Merge folds other's observations into h. The histograms must share
// bucketing parameters.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if h.growth != other.growth || h.smallest != other.smallest {
		return fmt.Errorf("stats: merging histograms with different bucketing")
	}
	if len(other.counts) > len(h.counts) {
		h.grow(len(other.counts))
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.moments.Merge(other.moments)
	return nil
}

// Reset discards all recorded observations, keeping the bucketing
// parameters and the bucket array, so a histogram that is reset every
// window records into warm memory without allocating.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.moments.Reset()
}

// CDF evaluates the empirical cumulative distribution at v.
func (h *Histogram) CDF(v float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	return float64(h.CumulativeCount(v)) / float64(total)
}

// FractionAbove reports the fraction of observations strictly above v,
// up to bucket resolution: observations in v's own bucket count as not
// above, so it is exactly 1 − CDF(v). The SLO watchdog's burn rate is
// FractionAbove(target).
func (h *Histogram) FractionAbove(v float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	return float64(total-h.CumulativeCount(v)) / float64(total)
}

// QuantileBounds returns the bucket that holds the q-th quantile as the
// half-open interval [lo, hi): the tightest statement the bucketing can
// make about where the true quantile lies. Bucket 0 reports [0,
// smallest). It returns ErrNoSamples when the histogram is empty.
func (h *Histogram) QuantileBounds(q float64) (lo, hi float64, err error) {
	i, err := h.rankBucket(q)
	switch {
	case err != nil:
		return 0, 0, err
	case i == len(h.counts):
		return h.Max(), h.Max(), nil
	case i == 0:
		return 0, h.smallest, nil
	}
	return h.bucketUpper(i - 1), h.bucketUpper(i), nil
}

// EachBucket calls fn for every non-empty bucket in ascending value
// order with the bucket's exclusive upper bound and its count. Bucket 0
// covers [0, smallest).
func (h *Histogram) EachBucket(fn func(upper float64, count int64)) {
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		fn(h.bucketUpper(i), c)
	}
}

// CumulativeCount reports how many recorded observations the bucketing
// places at or below v: the count of every bucket whose range ends at
// or before v's bucket. It is the integer-valued companion of CDF.
func (h *Histogram) CumulativeCount(v float64) int64 {
	idx := h.bucketIndex(v)
	var cum int64
	for i, c := range h.counts {
		if i > idx {
			break
		}
		cum += c
	}
	return cum
}

// Clone returns an independent copy of h; mutating either afterwards
// leaves the other untouched.
func (h *Histogram) Clone() *Histogram {
	dup := *h
	dup.counts = make([]int64, len(h.counts))
	copy(dup.counts, h.counts)
	return &dup
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
