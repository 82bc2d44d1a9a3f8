// Package mrc computes miss-ratio curves (MRCs) from key-access traces
// using Mattson's stack-distance algorithm (O(n log n) via a Fenwick
// tree). The paper treats the cache miss ratio r as an exogenous
// input to its latency model (§5.2.3); an MRC is how a deployment
// derives r from a workload trace and a cache size — closing the loop
// between trace, cache provisioning and the Theorem 1 latency estimate
// (the approach of the Cliffhanger/Dynacache line of work the paper
// cites).
package mrc

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmptyTrace is returned when no accesses were recorded.
var ErrEmptyTrace = errors.New("mrc: empty trace")

// Analyzer ingests a key-access stream and accumulates the reuse
// (stack) distance histogram. It implements Mattson's algorithm for an
// LRU stack: the stack distance of an access is the number of DISTINCT
// keys touched since the previous access to the same key; an access
// hits in an LRU cache of capacity c iff its stack distance <= c.
type Analyzer struct {
	// lastIndex maps key -> position of its most recent access.
	lastIndex map[string]int
	// fenwick marks positions that are the latest access of their key.
	fenwick []int
	// n is the number of accesses so far.
	n int
	// histogram[d] counts accesses with stack distance d (1-based);
	// stored sparsely.
	histogram map[int]int64
	// cold counts first-ever accesses (infinite distance).
	cold int64
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		lastIndex: make(map[string]int),
		histogram: make(map[int]int64),
	}
}

// fenwick helpers (1-based).
func (a *Analyzer) fenwickAdd(i, delta int) {
	for ; i < len(a.fenwick); i += i & (-i) {
		a.fenwick[i] += delta
	}
}

func (a *Analyzer) fenwickSum(i int) int {
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += a.fenwick[i]
	}
	return s
}

// Add records one access.
func (a *Analyzer) Add(key string) {
	a.n++
	pos := a.n // 1-based position of this access
	// Grow the Fenwick tree amortized-doubling style.
	for len(a.fenwick) <= pos {
		grown := make([]int, maxInt(2*len(a.fenwick), 1024))
		copy(grown, a.fenwick)
		a.fenwick = grown
	}
	if prev, ok := a.lastIndex[key]; ok {
		// Stack distance = number of distinct keys accessed strictly
		// after prev = marked positions in (prev, pos), plus 1 for the
		// key itself... Mattson counts the key's own position: an LRU
		// cache of capacity c hits iff (distinct keys since last access,
		// inclusive of this key) <= c.
		distinctBetween := a.fenwickSum(pos-1) - a.fenwickSum(prev)
		d := distinctBetween + 1
		a.histogram[d]++
		a.fenwickAdd(prev, -1) // old position no longer the latest
	} else {
		a.cold++
	}
	a.fenwickAdd(pos, 1)
	a.lastIndex[key] = pos
}

// Accesses reports the number of recorded accesses.
func (a *Analyzer) Accesses() int64 { return int64(a.n) }

// UniqueKeys reports the number of distinct keys seen.
func (a *Analyzer) UniqueKeys() int { return len(a.lastIndex) }

// Curve is a finished miss-ratio curve: MissRatio(c) for every LRU
// cache capacity c (in items).
type Curve struct {
	// distances are the sorted distinct stack distances observed.
	distances []int
	// cumHits[i] counts accesses with stack distance <= distances[i].
	cumHits []int64
	// total is the number of accesses.
	total int64
	// cold is the number of compulsory (first-access) misses.
	cold int64
	// uniques is the number of distinct keys.
	uniques int
}

// Curve freezes the analyzer into a queryable curve.
func (a *Analyzer) Curve() (*Curve, error) {
	if a.n == 0 {
		return nil, ErrEmptyTrace
	}
	distances := make([]int, 0, len(a.histogram))
	for d := range a.histogram {
		distances = append(distances, d)
	}
	sort.Ints(distances)
	cum := make([]int64, len(distances))
	var running int64
	for i, d := range distances {
		running += a.histogram[d]
		cum[i] = running
	}
	return &Curve{
		distances: distances,
		cumHits:   cum,
		total:     int64(a.n),
		cold:      a.cold,
		uniques:   len(a.lastIndex),
	}, nil
}

// Compute is the one-shot convenience over a full trace.
func Compute(keys []string) (*Curve, error) {
	a := NewAnalyzer()
	for _, k := range keys {
		a.Add(k)
	}
	return a.Curve()
}

// MissRatio returns the fraction of accesses that miss in an LRU cache
// holding capacityItems items. Capacity 0 misses everything; capacity
// >= the distinct-key count leaves only compulsory misses.
func (c *Curve) MissRatio(capacityItems int) float64 {
	if capacityItems <= 0 {
		return 1
	}
	// hits = accesses with stack distance <= capacity.
	i := sort.SearchInts(c.distances, capacityItems+1) - 1
	var hits int64
	if i >= 0 {
		hits = c.cumHits[i]
	}
	return 1 - float64(hits)/float64(c.total)
}

// ColdMissRatio returns the compulsory-miss floor (first accesses /
// total): no cache size can go below it.
func (c *Curve) ColdMissRatio() float64 {
	return float64(c.cold) / float64(c.total)
}

// UniqueKeys reports the trace's distinct-key count (the capacity at
// which the curve reaches its floor).
func (c *Curve) UniqueKeys() int { return c.uniques }

// CapacityForMissRatio returns the smallest LRU capacity (in items)
// whose miss ratio is <= target. It returns an error when the target is
// below the compulsory floor. Degenerate curves (a single observed
// stack distance, or no reuse at all) would make the search bottom out
// at a meaningless zero-item cache; the result is floored at 1 item.
func (c *Curve) CapacityForMissRatio(target float64) (int, error) {
	if math.IsNaN(target) || target < 0 || target > 1 {
		return 0, fmt.Errorf("mrc: target %v out of [0, 1]", target)
	}
	if target < c.ColdMissRatio() {
		return 0, fmt.Errorf("mrc: target %.4f below compulsory floor %.4f",
			target, c.ColdMissRatio())
	}
	// Binary search over the observed distance grid.
	lo, hi := 0, c.uniques
	for lo < hi {
		mid := (lo + hi) / 2
		if c.MissRatio(mid) <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < 1 {
		lo = 1
	}
	return lo, nil
}

// TierSplit is the per-access outcome split of a two-tier (RAM + SSD)
// cache: the three probabilities sum to 1.
type TierSplit struct {
	// RAMHit: stack distance <= RAM capacity.
	RAMHit float64
	// DiskHit: the access misses RAM but its distance fits RAM+SSD —
	// exactly the population an extstore tier converts from backend
	// fetches into disk reads.
	DiskHit float64
	// DBMiss: distance beyond both tiers, plus compulsory misses.
	DBMiss float64
}

// Split evaluates the curve at two capacity points — RAM alone versus
// RAM+SSD — giving the tier hit ratios of an inclusive two-tier LRU:
// every access with stack distance in (ramItems, totalItems] is a
// disk hit. This is the two-point evaluation the model plane uses to
// price the extstore service stage.
func (c *Curve) Split(ramItems, totalItems int) (TierSplit, error) {
	if ramItems < 0 || totalItems < ramItems {
		return TierSplit{}, fmt.Errorf("mrc: invalid tier capacities ram=%d total=%d",
			ramItems, totalItems)
	}
	mRAM := c.MissRatio(ramItems)
	mTot := c.MissRatio(totalItems)
	return TierSplit{
		RAMHit:  1 - mRAM,
		DiskHit: mRAM - mTot,
		DBMiss:  mTot,
	}, nil
}

// DiskHitFraction is the conditional probability that a RAM miss is
// served by the disk tier — the number a live extstore's
// hits/(hits+misses) counters should converge to.
func (t TierSplit) DiskHitFraction() float64 {
	miss := t.DiskHit + t.DBMiss
	if miss <= 0 {
		return 0
	}
	return t.DiskHit / miss
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
