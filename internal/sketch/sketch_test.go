package sketch

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"memqlat/internal/stats"
)

// Where the tests of the sketch's own bucket scheme went when it was
// replaced by stats.Histogram: the 1 % quantile error bound is
// stats.TestHistogramQuantileRelativeError; FractionAbove is
// stats.TestHistogramFractionAbove; merging (sketch-to-sketch and
// snapshot-to-snapshot, including the mismatched-bucketing error) is
// stats.TestHistogramMerge/MergeIncompatible/MergeQuantileRoundTrip;
// the NaN/negative/sub-nanosecond edge cases are
// TestBadSamplesFollowHistogramRule here and
// stats.TestHistogramNegativeAndNaN. The RelativeError option, the
// overflow bucket and out-of-range-q clamping no longer exist.

func mustNew(t testing.TB) *Sketch {
	t.Helper()
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// buckets flattens a histogram's non-empty buckets for comparison.
func buckets(h *stats.Histogram) map[float64]int64 {
	out := map[float64]int64{}
	h.EachBucket(func(upper float64, count int64) { out[upper] = count })
	return out
}

func TestEmptySketch(t *testing.T) {
	snap := mustNew(t).Snapshot()
	if snap.Count() != 0 || snap.MustQuantile(0.5) != 0 || snap.FractionAbove(0) != 0 || snap.Mean() != 0 {
		t.Fatalf("empty snapshot: count=%d p50=%v above=%v mean=%v, want zeros",
			snap.Count(), snap.MustQuantile(0.5), snap.FractionAbove(0), snap.Mean())
	}
}

// TestBadSamplesFollowHistogramRule pins the one rule for bad samples
// on the striped path: NaN and negatives are counted, as zero
// (stats.Histogram.Record), never dropped.
func TestBadSamplesFollowHistogramRule(t *testing.T) {
	s := mustNew(t)
	s.Record(math.NaN())
	s.Stripe(3).Record(-1)
	s.Record(2e3) // far above any latency: just another bucket, no overflow cap
	snap := s.Snapshot()
	if snap.Count() != 3 {
		t.Fatalf("count=%d, want 3 (NaN and negatives are counted)", snap.Count())
	}
	if snap.Min() != 0 || snap.MustQuantile(0.5) >= 1e-9 {
		t.Errorf("min=%v p50=%v, want bad samples recorded as zero", snap.Min(), snap.MustQuantile(0.5))
	}
	if got := snap.MustQuantile(1); math.Abs(got-2e3) > 0.01*2e3 || got > snap.Max() {
		t.Errorf("p100=%v, want within 1%% of (and not above) the max 2e3", got)
	}
}

// TestSnapshotEqualsSingleHistogram is the merge-equivalence property,
// meant for -race: goroutines recording through distinct Stripe handles
// while snapshots are taken, then Snapshot, equals one stats.Histogram
// fed the same multiset — bucket for bucket.
func TestSnapshotEqualsSingleHistogram(t *testing.T) {
	s := mustNew(t)
	const goroutines, perG = 16, 2000
	vals := make([][]float64, goroutines)
	want := stats.NewHistogram()
	rng := rand.New(rand.NewSource(7))
	for g := range vals {
		vals[g] = make([]float64, perG)
		for i := range vals[g] {
			// Log-uniform 100ns..10s, like a heavy-tailed latency.
			vals[g][i] = math.Exp(rng.Float64()*math.Log(1e8)) * 1e-7
			want.Record(vals[g][i])
		}
	}
	var wg sync.WaitGroup
	for g := range vals {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := s.Stripe(uint64(g))
			for _, v := range vals[g] {
				st.Record(v)
			}
		}(g)
	}
	stop := make(chan struct{})
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if snap := s.Snapshot(); snap.Count() > goroutines*perG {
				t.Error("mid-run snapshot counts more than was recorded")
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-snapped

	got := s.Snapshot()
	if got.Count() != want.Count() || got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("count/min/max = %d/%v/%v, want %d/%v/%v",
			got.Count(), got.Min(), got.Max(), want.Count(), want.Min(), want.Max())
	}
	gb, wb := buckets(got), buckets(want)
	if len(gb) != len(wb) {
		t.Fatalf("%d non-empty buckets, want %d", len(gb), len(wb))
	}
	for upper, c := range wb {
		if gb[upper] != c {
			t.Fatalf("bucket <%v: count %d, want %d", upper, gb[upper], c)
		}
	}
	for q := 0.0; q <= 1; q += 1.0 / 64 {
		if g, w := got.MustQuantile(q), want.MustQuantile(q); g != w {
			t.Errorf("q=%v: %v, want %v", q, g, w)
		}
	}
	if g, w := got.Mean(), want.Mean(); math.Abs(g-w) > 1e-9*w {
		t.Errorf("mean=%v, want %v", g, w)
	}
	// The snapshot is a private copy.
	got.Record(1)
	if s.Snapshot().Count() != want.Count() {
		t.Error("mutating a snapshot leaked into the sketch")
	}
}

// TestResetUnderRecord resets while recorders run (for -race), then
// checks a quiescent Reset empties every stripe and recording resumes.
func TestResetUnderRecord(t *testing.T) {
	s := mustNew(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := s.Stripe(uint64(g))
			for i := 0; i < 2000; i++ {
				st.Record(float64(i+1) * 1e-6)
				if g == 0 && i%100 == 0 {
					s.Reset()
				}
			}
		}(g)
	}
	wg.Wait()
	s.Reset()
	if snap := s.Snapshot(); snap.Count() != 0 || snap.MustQuantile(0.99) != 0 {
		t.Fatalf("after Reset: count=%d p99=%v, want 0", snap.Count(), snap.MustQuantile(0.99))
	}
	s.Stripe(5).Record(4e-3)
	if snap := s.Snapshot(); snap.Count() != 1 || snap.Max() != 4e-3 {
		t.Fatalf("after Reset+Record: count=%d max=%v", snap.Count(), snap.Max())
	}
}

// TestRecordZeroAlloc is the steady-state gate: once a stripe's bucket
// array covers the sample range, neither record path allocates — also
// straight after a Reset, which is how the watchdog uses it.
func TestRecordZeroAlloc(t *testing.T) {
	s := mustNew(t)
	st := s.Stripe(1)
	s.Record(1)
	st.Record(1)
	s.Reset()
	if n := testing.AllocsPerRun(1000, func() { s.Record(123e-6) }); n != 0 {
		t.Errorf("Sketch.Record: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { st.Record(123e-6) }); n != 0 {
		t.Errorf("Stripe.Record: %v allocs/op, want 0", n)
	}
}

// BenchmarkSketchRecord prints the per-record cost `make microbench`
// reports; the zero-alloc half is gated by TestRecordZeroAlloc.
func BenchmarkSketchRecord(b *testing.B) {
	s := mustNew(b)
	st := s.Stripe(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Record(123e-6)
	}
}
