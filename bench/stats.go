package main

import (
	"math"
	"sort"
)

// exactBelow is the latency (ns) under which the recorder keeps an
// exact count per nanosecond; slower samples are kept individually.
// Fixed memory, no allocation on the timed path for any sample under
// 1.05 ms, and percentiles that are exact rather than bucketed.
const exactBelow = 1 << 20

// A recorder collects one worker's latency samples for one round.
type recorder struct {
	counts []uint32 // counts[ns] for ns < exactBelow
	over   []int64  // samples >= exactBelow
	n      int64
	sum    int64
}

func newRecorder() *recorder {
	return &recorder{counts: make([]uint32, exactBelow), over: make([]int64, 0, 1<<14)}
}

func (r *recorder) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if ns < exactBelow {
		r.counts[ns]++
	} else {
		r.over = append(r.over, ns)
	}
	r.n++
	r.sum += ns
}

func (r *recorder) reset() {
	clear(r.counts)
	r.over = r.over[:0]
	r.n, r.sum = 0, 0
}

// latency summarises the merged samples of all workers in one round.
// Times are ns. top is the latency at topPct, the highest percentile
// with at least ten samples beyond it.
type latency struct {
	n                   int64
	mean                float64
	p50, p99, p999, max float64
	top, topPct         float64
}

// summarize merges the recorders and reads every percentile a round
// reports in one pass over the counts.
func summarize(recs []*recorder) latency {
	var l latency
	var sum int64
	for _, r := range recs {
		l.n += r.n
		sum += r.sum
	}
	if l.n == 0 {
		return l
	}
	l.mean = float64(sum) / float64(l.n)
	l.topPct = topPercentile(l.n)
	qs := quantiles(recs, []float64{0.50, 0.99, 0.999, 1})
	l.p50, l.p99, l.p999, l.max = qs[0], qs[1], qs[2], qs[3]
	l.top = quantiles(recs, []float64{l.topPct / 100})[0]
	return l
}

// quantiles returns, for each q of the ascending qs, the smallest
// sample (ns) with at least ceil(q*n) of the merged samples at or below
// it: exact, not interpolated.
func quantiles(recs []*recorder, qs []float64) []float64 {
	var n int64
	var over []int64
	for _, r := range recs {
		n += r.n
		over = append(over, r.over...)
	}
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	out := make([]float64, len(qs))
	if n == 0 {
		return out
	}
	rank := func(q float64) int64 { return max(1, int64(math.Ceil(q*float64(n)))) }
	var seen int64
	next := 0
	for ns := 0; ns < exactBelow && next < len(qs); ns++ {
		for _, r := range recs {
			seen += int64(r.counts[ns])
		}
		for next < len(qs) && seen >= rank(qs[next]) {
			out[next] = float64(ns)
			next++
		}
	}
	for ; next < len(qs); next++ {
		out[next] = float64(over[rank(qs[next])-seen-1])
	}
	return out
}

// topPercentile returns the highest percentile of the ladder that still
// has at least ten of n samples beyond it (0 if not even the median has).
func topPercentile(n int64) float64 {
	ladder := []struct {
		pct    float64
		beyond int64 // samples beyond it, per 100 000
	}{{50, 50000}, {90, 10000}, {99, 1000}, {99.9, 100}, {99.99, 10}, {99.999, 1}}
	top := 0.0
	for _, l := range ladder {
		if n*l.beyond >= 10*100000 {
			top = l.pct
		}
	}
	return top
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is (max-min)/median: how far the rounds of one run disagree.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) == 0 || m == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m
}
