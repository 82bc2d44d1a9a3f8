package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 {
		t.Fatalf("empty histogram count %d", h.Count())
	}
	if _, err := h.Quantile(0.5); err != ErrNoSamples {
		t.Fatalf("quantile of empty histogram: err = %v, want ErrNoSamples", err)
	}
}

func TestHistogramInvalidParams(t *testing.T) {
	if _, err := NewHistogramWith(0, 1.5); err == nil {
		t.Error("smallest=0 accepted")
	}
	if _, err := NewHistogramWith(1e-9, 1.0); err == nil {
		t.Error("growth=1 accepted")
	}
	if _, err := NewHistogramWith(-1, 0.5); err == nil {
		t.Error("negative params accepted")
	}
}

func TestHistogramQuantileArgRange(t *testing.T) {
	h := NewHistogram()
	h.Record(1)
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := h.Quantile(q); err == nil {
			t.Errorf("quantile(%v) accepted", q)
		}
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(0.001)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.MustQuantile(q)
		if !almostEqual(got, 0.001, 0.02) {
			t.Errorf("quantile(%v) = %v, want ~0.001", q, got)
		}
	}
	if h.Mean() != 0.001 {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Uniform values over [1ms, 100ms]: the p-quantile should be within a
	// few percent of the exact empirical quantile.
	rng := rand.New(rand.NewPCG(7, 7))
	h := NewHistogram()
	var raw []float64
	for i := 0; i < 50000; i++ {
		v := 0.001 + 0.099*rng.Float64()
		raw = append(raw, v)
		h.Record(v)
	}
	sort.Float64s(raw)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		exact := raw[int(q*float64(len(raw)-1))]
		got := h.MustQuantile(q)
		if !almostEqual(got, exact, 0.03) {
			t.Errorf("q=%v: got %v, exact %v", q, got, exact)
		}
	}
}

func TestHistogramExponentialTail(t *testing.T) {
	// Exponential(rate 1e4): p99 should be near ln(100)/1e4 = 460µs.
	rng := rand.New(rand.NewPCG(3, 9))
	h := NewHistogram()
	for i := 0; i < 200000; i++ {
		h.Record(rng.ExpFloat64() / 1e4)
	}
	want := math.Log(100) / 1e4
	got := h.MustQuantile(0.99)
	if !almostEqual(got, want, 0.05) {
		t.Errorf("p99 = %v, want ~%v", got, want)
	}
}

func TestHistogramNegativeAndNaN(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	h.Record(math.NaN())
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	if got := h.MustQuantile(1); got != 0 {
		t.Errorf("max quantile = %v, want 0", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	all := NewHistogram()
	rng := rand.New(rand.NewPCG(11, 13))
	for i := 0; i < 10000; i++ {
		v := rng.ExpFloat64() / 5e4
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d != %d", a.Count(), all.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if !almostEqual(a.MustQuantile(q), all.MustQuantile(q), 1e-9) {
			t.Errorf("q=%v: merged %v != direct %v", q, a.MustQuantile(q), all.MustQuantile(q))
		}
	}
}

func TestHistogramMergeIncompatible(t *testing.T) {
	a := NewHistogram()
	b, err := NewHistogramWith(1e-6, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Error("merge of incompatible histograms accepted")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("merge nil: %v", err)
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{0.001, 0.002, 0.003, 0.004} {
		h.Record(v)
	}
	if got := h.CDF(0.0025); !almostEqual(got, 0.5, 0.01) {
		t.Errorf("CDF(0.0025) = %v, want 0.5", got)
	}
	if got := h.CDF(1); got != 1 {
		t.Errorf("CDF(1) = %v, want 1", got)
	}
	if got := h.CDF(1e-12); got != 0 {
		t.Errorf("CDF(~0) = %v, want 0", got)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(1)
	h.Reset()
	if h.Count() != 0 || h.CumulativeCount(10) != 0 {
		t.Fatal("reset did not clear")
	}
	h.Record(2) // still usable
	if h.Count() != 1 || h.CumulativeCount(10) != 1 {
		t.Fatal("histogram unusable after reset")
	}
}

// TestHistogramResetKeepsBuckets: a histogram that is reset every
// window (the SLO watchdog resets 13 per window) must record into the
// bucket array it already has.
func TestHistogramResetKeepsBuckets(t *testing.T) {
	h := NewHistogram()
	h.Record(1)
	if n := testing.AllocsPerRun(100, func() {
		h.Reset()
		h.Record(123e-6)
		h.Record(1)
	}); n != 0 {
		t.Errorf("Reset then Record on a warmed histogram: %v allocs/op, want 0", n)
	}
}

// TestHistogramGrowsGeometrically: a rising run of samples opens one
// new top bucket per sample; geometric capacity growth keeps that to O(log n)
// reallocations, and the stale-free invariant holds across regrowth.
func TestHistogramGrowsGeometrically(t *testing.T) {
	h := NewHistogram()
	const samples = 1000
	v := 1e-6
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < samples; i++ {
			h.Record(v)
			v *= defaultGrowth * 1.001
		}
	}); n > 12 {
		t.Errorf("%d rising samples cost %v allocations, want O(log n)", samples, n)
	}
	var total int64
	h.EachBucket(func(_ float64, c int64) { total += c })
	if total != h.Count() {
		t.Errorf("bucket counts sum to %d, Count says %d", total, h.Count())
	}
}

// TestHistogramQuantileRelativeError is the accuracy property the
// watchdog's band math depends on: with growth 1.02 and the geometric
// midpoint as representative, every quantile is within √1.02 − 1 < 1 %
// of the exact sorted-reference value at the same rank.
func TestHistogramQuantileRelativeError(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewPCG(42, 42))
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		// Log-uniform between 100ns and 10s: seven decades, like a
		// latency distribution with a heavy tail.
		vals[i] = math.Exp(rng.Float64()*math.Log(1e8)) * 1e-7
		h.Record(vals[i])
	}
	sort.Float64s(vals)
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * n))
		if rank < 1 {
			rank = 1
		}
		exact := vals[rank-1]
		got := h.MustQuantile(q)
		if relErr := math.Abs(got-exact) / exact; relErr > 0.01 {
			t.Errorf("q=%v: histogram=%v exact=%v relative error %v > 1%%", q, got, exact, relErr)
		}
	}
	if h.Min() != vals[0] || h.Max() != vals[n-1] {
		t.Errorf("min/max=%v/%v, want %v/%v", h.Min(), h.Max(), vals[0], vals[n-1])
	}
}

// TestHistogramFractionAbove pins the burn-rate convention: samples in
// the threshold's own bucket count as not above, so FractionAbove is
// exactly 1 − CumulativeCount/Count.
func TestHistogramFractionAbove(t *testing.T) {
	if got := NewHistogram().FractionAbove(0); got != 0 {
		t.Errorf("empty FractionAbove = %v, want 0", got)
	}
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(float64(i) * 1e-3) // 1ms .. 100ms
	}
	if got := h.FractionAbove(50e-3); math.Abs(got-0.5) > 0.03 {
		t.Errorf("FractionAbove(50ms)=%v, want ~0.5", got)
	}
	if got := h.FractionAbove(1); got != 0 {
		t.Errorf("FractionAbove(1s)=%v, want 0", got)
	}
	if got := h.FractionAbove(0); got != 1 {
		t.Errorf("FractionAbove(0)=%v, want 1", got)
	}
	// A sample equal to the threshold shares its bucket: not above.
	if got := h.FractionAbove(100e-3); got != 0 {
		t.Errorf("FractionAbove(max)=%v, want 0 (own bucket is not above)", got)
	}
	for _, v := range []float64{0, 1e-3, 7.5e-3, 50e-3, 99e-3, 1} {
		want := 1 - float64(h.CumulativeCount(v))/float64(h.Count())
		if got := h.FractionAbove(v); math.Abs(got-want) > 1e-15 {
			t.Errorf("FractionAbove(%v)=%v, 1−CumulativeCount/Count=%v", v, got, want)
		}
	}
	// The watchdog's burn cases: a 10ms target over 1ms/20ms traffic.
	burn := NewHistogram()
	for i := 0; i < 100; i++ {
		burn.Record(1e-3)
	}
	if got := burn.FractionAbove(10e-3); got != 0 {
		t.Errorf("healthy window burns %v, want 0", got)
	}
	for i := 0; i < 100; i++ {
		burn.Record(20e-3)
	}
	if got := burn.FractionAbove(10e-3); got != 0.5 {
		t.Errorf("half-violating window burns %v, want 0.5", got)
	}
}

// Property: quantiles are monotone in q and bounded by [Min, Max].
func TestHistogramPropertyQuantileMonotone(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		h := NewHistogram()
		count := int(n)%200 + 1
		for i := 0; i < count; i++ {
			h.Record(rng.ExpFloat64() / 1e3)
		}
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.MustQuantile(q)
			if v < prev-1e-12 {
				return false
			}
			if v < h.Min()-1e-12 || v > h.Max()+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: CDF is monotone non-decreasing.
func TestHistogramPropertyCDFMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		h := NewHistogram()
		for i := 0; i < 100; i++ {
			h.Record(rng.Float64())
		}
		prev := 0.0
		for x := 0.0; x < 1.2; x += 0.01 {
			c := h.CDF(x)
			if c < prev {
				return false
			}
			prev = c
		}
		return prev == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestHistogramMergeQuantileRoundTrip splits one sample stream across
// several histograms, merges them back, and requires every quantile of
// the merged histogram to agree with a single histogram that saw the
// whole stream — within bucket resolution, i.e. exactly, because both
// place each observation in the same bucket.
func TestHistogramMergeQuantileRoundTrip(t *testing.T) {
	whole := NewHistogram()
	parts := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram()}
	rng := rand.New(rand.NewPCG(17, 23))
	for i := 0; i < 60000; i++ {
		v := rng.ExpFloat64() / 1e4
		whole.Record(v)
		parts[i%len(parts)].Record(v)
	}
	merged := NewHistogram()
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count() != whole.Count() {
		t.Fatalf("merged count %d, want %d", merged.Count(), whole.Count())
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		mv := merged.MustQuantile(q)
		wv := whole.MustQuantile(q)
		// Same buckets, same counts: midpoints must match bit-for-bit,
		// and both must land inside the whole histogram's bucket bounds.
		if mv != wv {
			t.Errorf("q=%v: merged %v, whole %v", q, mv, wv)
		}
		lo, hi, err := whole.QuantileBounds(q)
		if err != nil {
			t.Fatal(err)
		}
		// The reported value is clamped to observed min/max, so allow
		// the interval check to widen by that clamp.
		lo = math.Min(lo, whole.Min())
		hi = math.Max(hi, whole.Max())
		if mv < lo || mv > hi {
			t.Errorf("q=%v: merged quantile %v outside bucket bounds [%v, %v]", q, mv, lo, hi)
		}
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram()
	if _, _, err := h.QuantileBounds(0.5); err != ErrNoSamples {
		t.Fatalf("empty QuantileBounds err = %v, want ErrNoSamples", err)
	}
	if _, _, err := h.QuantileBounds(1.5); err == nil {
		t.Fatal("QuantileBounds(1.5) accepted")
	}
	h.Record(1e-3)
	lo, hi, err := h.QuantileBounds(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo <= 1e-3 && 1e-3 < hi) {
		t.Errorf("bounds [%v, %v) do not contain 1e-3", lo, hi)
	}
	// ~1% bucket resolution: the interval must be tight.
	if hi/lo > 1.03 {
		t.Errorf("bucket [%v, %v) wider than growth factor", lo, hi)
	}
	h.Record(0) // bucket 0 reports [0, smallest)
	lo, hi, err = h.QuantileBounds(0)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi != defaultSmallest {
		t.Errorf("bucket-0 bounds [%v, %v), want [0, %v)", lo, hi, defaultSmallest)
	}
}

func TestHistogramEachBucketAndCumulative(t *testing.T) {
	h := NewHistogram()
	vals := []float64{1e-6, 1e-6, 5e-4, 2e-2}
	for _, v := range vals {
		h.Record(v)
	}
	var total int64
	last := -1.0
	h.EachBucket(func(upper float64, count int64) {
		if upper <= last {
			t.Errorf("bucket uppers not ascending: %v after %v", upper, last)
		}
		last = upper
		if count <= 0 {
			t.Errorf("EachBucket emitted empty bucket at %v", upper)
		}
		total += count
	})
	if total != int64(len(vals)) {
		t.Errorf("EachBucket total %d, want %d", total, len(vals))
	}
	if got := h.CumulativeCount(1e-5); got != 2 {
		t.Errorf("CumulativeCount(1e-5) = %d, want 2", got)
	}
	if got := h.CumulativeCount(1); got != int64(len(vals)) {
		t.Errorf("CumulativeCount(1) = %d, want %d", got, len(vals))
	}
	// CumulativeCount and CDF must agree on the same bucketing.
	for _, v := range []float64{0, 1e-6, 1e-4, 1e-1} {
		want := h.CDF(v) * float64(h.Count())
		if got := float64(h.CumulativeCount(v)); got != want {
			t.Errorf("CumulativeCount(%v) = %v, CDF says %v", v, got, want)
		}
	}
}

func TestHistogramClone(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(float64(i) * 1e-5)
	}
	c := h.Clone()
	if c.Count() != h.Count() || c.MustQuantile(0.5) != h.MustQuantile(0.5) {
		t.Fatal("clone does not match original")
	}
	c.Record(10)
	if c.Count() == h.Count() || h.Max() == 10 {
		t.Error("mutating clone leaked into original")
	}
}
