// Package route is the key-to-server routing substrate shared by the
// client and the proxy tier: the Selector implementations (modulo,
// ketama ring with incremental membership, weighted) and the per-server
// circuit breaker that drives failover. The client re-exports these
// types, so both tiers agree byte-for-byte on key ownership — a proxied
// deployment routes exactly where a direct client would.
package route

import (
	"fmt"
	"sort"

	"memqlat/internal/dist"
)

// Selector maps a key to a server index in [0, n).
type Selector interface {
	// Pick returns the index of the server responsible for key.
	Pick(key string) int
	// N returns the number of servers.
	N() int
}

// ByteSelector is implemented by selectors that can pick from a byte
// key without materializing a string — the proxy's zero-allocation
// routing path. Every selector in this package implements it.
type ByteSelector interface {
	// PickB is Pick for a byte-slice key.
	PickB(key []byte) int
}

// PickKey routes a byte key through s, using the allocation-free PickB
// when s supports it.
func PickKey(s Selector, key []byte) int {
	if bs, ok := s.(ByteSelector); ok {
		return bs.PickB(key)
	}
	return s.Pick(string(key))
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash64 hashes a string key (FNV-1a finalized by SplitMix64).
func Hash64(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return mix64(h)
}

// Hash64B is Hash64 for a byte-slice key; identical output for
// identical bytes.
func Hash64B(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return mix64(h)
}

// mix64 is a SplitMix64 finalizer: FNV alone clusters badly on similar
// strings (sequential keys, vnode labels), which skews ring balance;
// the avalanche spreads the points uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ModuloSelector is the simplest key-to-server mapping: hash mod n.
type ModuloSelector struct {
	n int
}

var (
	_ Selector     = (*ModuloSelector)(nil)
	_ ByteSelector = (*ModuloSelector)(nil)
)

// NewModuloSelector validates n >= 1.
func NewModuloSelector(n int) (*ModuloSelector, error) {
	if n < 1 {
		return nil, fmt.Errorf("route: modulo selector needs n >= 1, got %d", n)
	}
	return &ModuloSelector{n: n}, nil
}

// Pick implements Selector.
func (m *ModuloSelector) Pick(key string) int { return int(Hash64(key) % uint64(m.n)) }

// PickB implements ByteSelector.
func (m *ModuloSelector) PickB(key []byte) int { return int(Hash64B(key) % uint64(m.n)) }

// N implements Selector.
func (m *ModuloSelector) N() int { return m.n }

// RingSelector is a ketama-style consistent-hash ring with virtual
// nodes. Membership changes are incremental: Remove deletes one
// server's virtual nodes (moving only ~1/n of the keys to ring
// successors) and Add re-inserts them, without rehashing or re-sorting
// the rest of the ring. The index space is stable — removing server j
// never renumbers the survivors.
type RingSelector struct {
	points  []ringPoint
	n       int
	vnodes  int
	present []bool // per-index membership; false after Remove

	// jump[b] is the index of the first point whose hash is at or above
	// b<<shift, so the owner of a hash is found from its top bits by a
	// short forward scan. Derived from points by index().
	jump  []int32
	shift uint
}

type ringPoint struct {
	hash   uint64
	server int
}

var (
	_ Selector     = (*RingSelector)(nil)
	_ ByteSelector = (*RingSelector)(nil)
)

// NewRingSelector builds a ring over n servers with the given number of
// virtual nodes per server (default 160 when vnodes <= 0).
func NewRingSelector(n, vnodes int) (*RingSelector, error) {
	if n < 1 {
		return nil, fmt.Errorf("route: ring selector needs n >= 1, got %d", n)
	}
	if vnodes <= 0 {
		vnodes = 160
	}
	points := make([]ringPoint, 0, n*vnodes)
	for s := 0; s < n; s++ {
		points = appendVnodes(points, s, vnodes)
	}
	sort.Slice(points, func(i, j int) bool { return points[i].hash < points[j].hash })
	present := make([]bool, n)
	for i := range present {
		present[i] = true
	}
	r := &RingSelector{points: points, n: n, vnodes: vnodes, present: present}
	r.index()
	return r, nil
}

// index rebuilds the jump table over the current points: a power-of-two
// number of equal hash ranges, at least two per point, so a lookup scans
// past fewer than one point on average.
func (r *RingSelector) index() {
	bits := uint(1)
	for 1<<bits < 2*len(r.points) {
		bits++
	}
	r.shift = 64 - bits
	r.jump = make([]int32, 1<<bits)
	i := 0
	for b := range r.jump {
		for i < len(r.points) && r.points[i].hash < uint64(b)<<r.shift {
			i++
		}
		r.jump[b] = int32(i)
	}
}

// appendVnodes appends server s's virtual-node points (unsorted).
func appendVnodes(points []ringPoint, s, vnodes int) []ringPoint {
	for v := 0; v < vnodes; v++ {
		points = append(points, ringPoint{
			hash:   Hash64(fmt.Sprintf("server-%d#vnode-%d", s, v)),
			server: s,
		})
	}
	return points
}

// Pick implements Selector: the first ring point clockwise of the key's
// hash owns it.
func (r *RingSelector) Pick(key string) int { return r.owner(Hash64(key)) }

// PickB implements ByteSelector.
func (r *RingSelector) PickB(key []byte) int { return r.owner(Hash64B(key)) }

// owner finds the first point with hash >= h, wrapping at the top of
// the ring: the jump table gives the first candidate for h's range and
// the scan passes the few points of that range below h.
func (r *RingSelector) owner(h uint64) int {
	i := int(r.jump[h>>r.shift])
	for i < len(r.points) && r.points[i].hash < h {
		i++
	}
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].server
}

// N implements Selector: the size of the index space, which Remove
// deliberately does not shrink.
func (r *RingSelector) N() int { return r.n }

// Live returns how many servers currently hold ring points.
func (r *RingSelector) Live() int {
	live := 0
	for _, p := range r.present {
		if p {
			live++
		}
	}
	return live
}

// Contains reports whether server s currently holds ring points.
func (r *RingSelector) Contains(s int) bool {
	return s >= 0 && s < r.n && r.present[s]
}

// Remove deletes server s's virtual nodes: its keys redistribute to
// their ring successors while every other key keeps its owner. The
// index space is unchanged (N() still counts s), so the surviving
// servers keep their indices. One pass over the ring; no rehashing.
func (r *RingSelector) Remove(s int) error {
	if s < 0 || s >= r.n {
		return fmt.Errorf("route: remove server %d out of range [0,%d)", s, r.n)
	}
	if !r.present[s] {
		return fmt.Errorf("route: server %d already removed", s)
	}
	if r.Live() == 1 {
		return fmt.Errorf("route: cannot remove the last server")
	}
	kept := r.points[:0]
	for _, p := range r.points {
		if p.server != s {
			kept = append(kept, p)
		}
	}
	r.points = kept
	r.present[s] = false
	r.index()
	return nil
}

// Add inserts server s's virtual nodes: s == N() grows the ring by a
// fresh server, s < N() restores one that Remove took out. Only s's
// vnodes are hashed; they merge into the sorted ring in one pass.
func (r *RingSelector) Add(s int) error {
	switch {
	case s < 0 || s > r.n:
		return fmt.Errorf("route: add server %d out of range [0,%d]", s, r.n)
	case s == r.n:
		r.n++
		r.present = append(r.present, false)
	case r.present[s]:
		return fmt.Errorf("route: server %d already on the ring", s)
	}
	fresh := appendVnodes(make([]ringPoint, 0, r.vnodes), s, r.vnodes)
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].hash < fresh[j].hash })
	merged := make([]ringPoint, 0, len(r.points)+len(fresh))
	i, j := 0, 0
	for i < len(r.points) && j < len(fresh) {
		if r.points[i].hash <= fresh[j].hash {
			merged = append(merged, r.points[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	merged = append(merged, r.points[i:]...)
	merged = append(merged, fresh[j:]...)
	r.points = merged
	r.present[s] = true
	r.index()
	return nil
}

// WeightedSelector realizes an arbitrary load distribution {p_j}: key
// ownership is assigned by deterministic hashing into the cumulative
// weight table, so repeated Picks of one key agree while the aggregate
// key stream splits in the requested proportions. It is how the Fig. 10
// imbalance experiments steer p1 of the load to one server.
type WeightedSelector struct {
	weights *dist.Weighted
}

var (
	_ Selector     = (*WeightedSelector)(nil)
	_ ByteSelector = (*WeightedSelector)(nil)
)

// NewWeightedSelector validates the weight vector.
func NewWeightedSelector(weights []float64) (*WeightedSelector, error) {
	w, err := dist.NewWeighted(weights)
	if err != nil {
		return nil, fmt.Errorf("route: weighted selector: %w", err)
	}
	return &WeightedSelector{weights: w}, nil
}

// Pick implements Selector: the key's hash, mapped to [0,1), indexes the
// cumulative weight table.
func (w *WeightedSelector) Pick(key string) int { return w.pickHash(Hash64(key)) }

// PickB implements ByteSelector.
func (w *WeightedSelector) PickB(key []byte) int { return w.pickHash(Hash64B(key)) }

func (w *WeightedSelector) pickHash(h uint64) int {
	u := float64(h>>11) / float64(1<<53)
	// Binary search over the cumulative table via Prob sums would cost
	// allocations; reuse dist.Weighted's search by turning u into a
	// quantile lookup.
	return w.weights.PickQuantile(u)
}

// N implements Selector.
func (w *WeightedSelector) N() int { return w.weights.N() }
