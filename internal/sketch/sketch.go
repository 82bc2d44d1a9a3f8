// Package sketch implements a mergeable streaming quantile sketch with
// DDSketch-style relative-error guarantees: values are assigned to
// geometric buckets with ratio gamma = (1+α)/(1−α), so any quantile
// estimate is within a relative error of α of the true sample value.
//
// Unlike stats.Histogram (whose Record grows its count slice on
// demand), a Sketch preallocates its entire bucket array at
// construction, so Record never allocates — it is safe on the hottest
// request paths. Contention is bounded by lock striping in the style of
// telemetry.Collector: unsharded Records land in stripe 0, and workers
// holding distinct Stripe handles never serialize on one mutex.
//
// Snapshot, Merge and Reset make the sketch a rolling-window primitive:
// the SLO watchdog snapshots and resets one sketch per telemetry stage
// at every window boundary and evaluates the frozen snapshot off the
// hot path.
package sketch

import (
	"fmt"
	"math"
	"sync"
)

// numStripes is the number of independent lock domains. Power of two so
// Stripe can mask instead of divide.
const numStripes = 8

// The indexable value range, in seconds: [minValue, maxValue] covers
// 1 ns to ~17 min of latency. Values below minValue (including zero and
// negatives) land in a dedicated low bucket; values above maxValue land
// in an overflow bucket and are reported as the observed maximum.
const (
	minValue = 1e-9
	maxValue = 1e3
)

// Options configures a Sketch.
type Options struct {
	// RelativeError is the quantile accuracy bound α in (0, 0.5):
	// Quantile(q) is within ±α·v of the true sample value v.
	// 0 selects the default of 0.01 (1%).
	RelativeError float64
}

// config holds the derived bucketing parameters shared by a sketch and
// its snapshots.
type config struct {
	alpha       float64
	gamma       float64
	logGamma    float64
	invLogGamma float64
	// keyMin is the bucket key of minValue; bucket slot i>0 holds key
	// keyMin+i-1. Slot 0 is the low bucket, slot buckets-1 overflow.
	keyMin  int
	buckets int
}

func newConfig(alpha float64) (config, error) {
	if alpha == 0 {
		alpha = 0.01
	}
	if !(alpha > 0 && alpha < 0.5) {
		return config{}, fmt.Errorf("sketch: relative error %v must be in (0, 0.5)", alpha)
	}
	gamma := (1 + alpha) / (1 - alpha)
	logGamma := math.Log(gamma)
	keyOf := func(v float64) int { return int(math.Ceil(math.Log(v) / logGamma)) }
	keyMin := keyOf(minValue)
	keyMax := keyOf(maxValue)
	return config{
		alpha:       alpha,
		gamma:       gamma,
		logGamma:    logGamma,
		invLogGamma: 1 / logGamma,
		keyMin:      keyMin,
		buckets:     keyMax - keyMin + 3, // low bucket + keys + overflow
	}, nil
}

// index maps a value to its bucket slot. NaN, negatives and values
// below minValue map to the low bucket (slot 0).
func (c *config) index(v float64) int {
	if !(v >= minValue) {
		return 0
	}
	i := int(math.Ceil(math.Log(v)*c.invLogGamma)) - c.keyMin + 1
	if i >= c.buckets-1 {
		return c.buckets - 1
	}
	if i < 1 {
		// Guard against float rounding at the minValue boundary.
		return 1
	}
	return i
}

// value returns the representative value of bucket slot i: the point
// within the bucket whose maximum relative error over the bucket's
// range is exactly α (2·γ^k/(γ+1)).
func (c *config) value(i int) float64 {
	if i == 0 {
		return 0
	}
	k := c.keyMin + i - 1
	return 2 * math.Exp(float64(k)*c.logGamma) / (c.gamma + 1)
}

// Stripe is one lock domain of a Sketch. Its Record only contends with
// workers mapped to the same stripe.
type Stripe struct {
	cfg    *config
	mu     sync.Mutex
	counts []int64
	n      int64
	sum    float64
	min    float64
	max    float64
}

// Record adds one observation to the stripe. It never allocates.
func (st *Stripe) Record(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := st.cfg.index(v)
	st.mu.Lock()
	st.counts[i]++
	st.n++
	st.sum += v
	if v < st.min {
		st.min = v
	}
	if v > st.max {
		st.max = v
	}
	st.mu.Unlock()
}

// Sketch is a thread-safe streaming quantile sketch. The zero value is
// not usable; construct with New.
type Sketch struct {
	cfg     config
	stripes [numStripes]Stripe
}

// New constructs an empty sketch.
func New(opts Options) (*Sketch, error) {
	cfg, err := newConfig(opts.RelativeError)
	if err != nil {
		return nil, err
	}
	s := &Sketch{cfg: cfg}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.cfg = &s.cfg
		st.counts = make([]int64, cfg.buckets)
		st.min = math.Inf(1)
		st.max = math.Inf(-1)
	}
	return s, nil
}

// MustNew is New for statically known-valid options.
func MustNew(opts Options) *Sketch {
	s, err := New(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// RelativeError reports the configured accuracy bound α.
func (s *Sketch) RelativeError() float64 { return s.cfg.alpha }

// Record adds one observation via stripe 0. Hot paths with many
// concurrent workers should take a per-worker handle via Stripe.
func (s *Sketch) Record(v float64) { s.stripes[0].Record(v) }

// Stripe returns the lock-stripe handle for the worker identified by
// hint; observations through distinct handles do not serialize.
func (s *Sketch) Stripe(hint uint64) *Stripe {
	return &s.stripes[hint&(numStripes-1)]
}

// Count reports the number of recorded observations across all stripes.
func (s *Sketch) Count() int64 {
	var n int64
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n += st.n
		st.mu.Unlock()
	}
	return n
}

// Reset discards all observations, keeping the bucketing parameters.
func (s *Sketch) Reset() {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for j := range st.counts {
			st.counts[j] = 0
		}
		st.n = 0
		st.sum = 0
		st.min = math.Inf(1)
		st.max = math.Inf(-1)
		st.mu.Unlock()
	}
}

// Merge folds other's observations into s (stripe 0). The sketches must
// share their relative-error configuration. Other is read under its
// stripe locks and left untouched.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return nil
	}
	if s.cfg.alpha != other.cfg.alpha || s.cfg.buckets != other.cfg.buckets {
		return fmt.Errorf("sketch: merging sketches with different bucketing (α %v vs %v)",
			s.cfg.alpha, other.cfg.alpha)
	}
	snap := other.Snapshot()
	dst := &s.stripes[0]
	dst.mu.Lock()
	for i, c := range snap.counts {
		dst.counts[i] += c
	}
	dst.n += snap.n
	dst.sum += snap.sum
	if snap.min < dst.min {
		dst.min = snap.min
	}
	if snap.max > dst.max {
		dst.max = snap.max
	}
	dst.mu.Unlock()
	return nil
}

// Snapshot returns a frozen, mergeable copy of the sketch's current
// state, merged across stripes. Snapshot allocates; it is meant for
// window boundaries and reporting, not the record path.
func (s *Sketch) Snapshot() *Snapshot {
	snap := &Snapshot{
		cfg:    s.cfg,
		counts: make([]int64, s.cfg.buckets),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for j, c := range st.counts {
			snap.counts[j] += c
		}
		snap.n += st.n
		snap.sum += st.sum
		if st.min < snap.min {
			snap.min = st.min
		}
		if st.max > snap.max {
			snap.max = st.max
		}
		st.mu.Unlock()
	}
	return snap
}

// Snapshot is an immutable point-in-time view of a Sketch. It is safe
// for concurrent reads; Merge mutates the receiver and must not race
// with readers.
type Snapshot struct {
	cfg    config
	counts []int64
	n      int64
	sum    float64
	min    float64
	max    float64
}

// Count reports the number of observations in the snapshot.
func (sn *Snapshot) Count() int64 { return sn.n }

// Mean reports the exact sample mean (0 when empty).
func (sn *Snapshot) Mean() float64 {
	if sn.n == 0 {
		return 0
	}
	return sn.sum / float64(sn.n)
}

// Min reports the smallest observation (+Inf when empty).
func (sn *Snapshot) Min() float64 { return sn.min }

// Max reports the largest observation (−Inf when empty).
func (sn *Snapshot) Max() float64 { return sn.max }

// Quantile estimates the q-th quantile (q clamped to [0,1]); the
// estimate is within relative error α of the sample value at rank
// ceil(q·n) for values in the indexable range. Returns 0 when empty.
func (sn *Snapshot) Quantile(q float64) float64 {
	if sn.n == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(sn.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range sn.counts {
		cum += c
		if cum >= rank {
			if i == sn.cfg.buckets-1 {
				// Overflow bucket: the max is the best statement.
				return sn.max
			}
			// Exact min/max beat bucket representatives at the edges.
			return clamp(sn.cfg.value(i), sn.min, sn.max)
		}
	}
	return sn.max
}

// FractionAbove reports the fraction of observations strictly above x,
// up to bucket resolution (observations in x's own bucket count as not
// above). The SLO watchdog's burn rate is FractionAbove(target).
func (sn *Snapshot) FractionAbove(x float64) float64 {
	if sn.n == 0 {
		return 0
	}
	idx := sn.cfg.index(x)
	var above int64
	for i := idx + 1; i < len(sn.counts); i++ {
		above += sn.counts[i]
	}
	return float64(above) / float64(sn.n)
}

// Merge folds other into sn. The snapshots must share bucketing.
func (sn *Snapshot) Merge(other *Snapshot) error {
	if other == nil {
		return nil
	}
	if sn.cfg.alpha != other.cfg.alpha || sn.cfg.buckets != other.cfg.buckets {
		return fmt.Errorf("sketch: merging snapshots with different bucketing (α %v vs %v)",
			sn.cfg.alpha, other.cfg.alpha)
	}
	for i, c := range other.counts {
		sn.counts[i] += c
	}
	sn.n += other.n
	sn.sum += other.sum
	if other.min < sn.min {
		sn.min = other.min
	}
	if other.max > sn.max {
		sn.max = other.max
	}
	return nil
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
