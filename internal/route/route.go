// Package route is the key-to-server routing substrate shared by the
// client and the proxy tier: a ketama ring and the per-server circuit
// breaker that drives failover. Both tiers build the same ring, so they
// agree byte-for-byte on key ownership — a proxied deployment routes
// exactly where a direct client would.
package route

import (
	"fmt"
	"sort"
)

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

// RingSelector is a ketama-style consistent-hash ring with virtual
// nodes over a fixed set of servers.
type RingSelector struct {
	points []ringPoint
	n      int

	// jump[b] is the index of the first point whose hash is at or above
	// b<<shift, so the owner of a hash is found from its top bits by a
	// short forward scan.
	jump  []int32
	shift uint
}

type ringPoint struct {
	hash   uint64
	server int
}

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
		for v := 0; v < vnodes; v++ {
			points = append(points, ringPoint{
				hash:   Hash64(fmt.Sprintf("server-%d#vnode-%d", s, v)),
				server: s,
			})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].hash < points[j].hash })
	r := &RingSelector{points: points, n: n}
	// The jump table: a power-of-two number of equal hash ranges, at
	// least two per point, so a lookup scans past fewer than one point
	// on average.
	bits := uint(1)
	for 1<<bits < 2*len(points) {
		bits++
	}
	r.shift = 64 - bits
	r.jump = make([]int32, 1<<bits)
	i := 0
	for b := range r.jump {
		for i < len(points) && points[i].hash < uint64(b)<<r.shift {
			i++
		}
		r.jump[b] = int32(i)
	}
	return r, nil
}

// Pick returns the index in [0, N()) of the server responsible for
// key: the first ring point clockwise of the key's hash owns it.
func (r *RingSelector) Pick(key string) int { return r.owner(Hash64(key)) }

// PickB is Pick for a byte-slice key, without materializing a string:
// the proxy's zero-allocation routing path.
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

// N returns the number of servers.
func (r *RingSelector) N() int { return r.n }
