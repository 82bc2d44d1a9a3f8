package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// conns is C: the closed loop runs this many goroutines over this many
// pooled connections per server (README "Load shape").
const conns = 2

// A workload is one traffic mix on one topology. The names are cited by
// later issues and by BENCHMARK.json; do not rename them.
type workload struct {
	name string
	why  string

	keys      int     // keyspace size
	valueSize int     // bytes per value
	zipfS     float64 // key skew; 0 = uniform
	setFrac   float64 // share of requests that are SETs
	multi     int     // keys per request (1 = single-key GET/SET)
	streamLen int     // pre-generated requests, replayed cyclically

	servers    int
	proxied    bool
	connCore   string // server.Options.ConnCore; "" = default
	cacheBytes int64  // cache.Options.MaxBytes; 0 = default

	// ungated, when set, says why BENCHMARK.json does not list the
	// workload: it is measured and printed, but no bound is held to it.
	ungated string
}

var workloads = []workload{
	{
		name: "get_direct",
		why:  "baseline: 100% GET hits, client to one server on the goroutine core; the proxy does nothing",
		keys: 10000, valueSize: 100, zipfS: 0.99, multi: 1, streamLen: 1 << 20, servers: 1,
	},
	{
		name: "get_proxied",
		why:  "the get_direct op stream through proxy to 2 servers; a proxy-hop gain shows here and nowhere else",
		keys: 10000, valueSize: 100, zipfS: 0.99, multi: 1, streamLen: 1 << 20, servers: 2, proxied: true,
	},
	{
		name: "get_eventloop",
		why:  "the get_direct op stream and topology on the epoll conn core; the gap to get_direct is the event loop's",
		keys: 10000, valueSize: 100, zipfS: 0.99, multi: 1, streamLen: 1 << 20, servers: 1, connCore: "eventloop",
		ungated: "identical runs land in different scheduling modes (24 k to 122 k ops/s here), wider than any bound the manifest may carry",
	},
	{
		name: "multiget_fanout",
		why:  "the paper's fork-join T(N): 32-key MultiGet over 2 servers, so per-key program cost outweighs syscalls",
		keys: 10000, valueSize: 100, multi: 32, streamLen: 1 << 16, servers: 2,
	},
	{
		name: "set_mixed",
		why:  "50% SET / 50% GET of 1 KiB values, 72 MB of data on a 32 MiB cache: write path, allocation, eviction",
		keys: 65536, valueSize: 1024, setFrac: 0.5, multi: 1, streamLen: 1 << 20, servers: 1, cacheBytes: 32 << 20,
	},
}

func contains(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rng is splitmix64. The benchmark owns its generator so that the
// inputs of a seed never move with the code under test.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

const (
	setBit = 1 << 31 // stream entry flag: the request is a SET
	// valueStride spaces the per-key windows into the value pool, so
	// every key's value starts at its own offset and no two are equal.
	valueStride = 16
)

// A stream is everything a seed determines: key names, value bytes and
// the request sequence. The servers only ever see these bytes.
type stream struct {
	w    *workload
	keys []string
	pool []byte   // key k's value is pool[k*valueStride:][:valueSize]
	ops  []uint32 // w.multi key indices per request; setBit marks a SET
	hash uint64
}

func (s *stream) n() int { return len(s.ops) / s.w.multi }

func (s *stream) value(k uint32) []byte {
	off := int(k) * valueStride
	return s.pool[off : off+s.w.valueSize]
}

// op returns request i's key indices (one for GET/SET, w.multi for a
// multiget) and whether it is a SET. On a SET, keys[0] still carries
// setBit.
func (s *stream) op(i int) (keys []uint32, set bool) {
	m := s.w.multi
	keys = s.ops[i*m : (i+1)*m]
	return keys, m == 1 && keys[0]&setBit != 0
}

func newStream(w *workload, seed uint64) *stream {
	s := &stream{w: w, keys: make([]string, w.keys)}
	for i := range s.keys {
		s.keys[i] = fmt.Sprintf("key%07d", i)
	}
	r := rng(seed)
	s.pool = make([]byte, w.keys*valueStride+w.valueSize+8)
	for i := 0; i+8 <= len(s.pool); i += 8 {
		binary.LittleEndian.PutUint64(s.pool[i:], r.next())
	}
	s.pool = s.pool[:w.keys*valueStride+w.valueSize]

	// Popularity rank -> key index through a seeded permutation, so the
	// hot keys (and the servers that own them) differ between seeds.
	perm := make([]uint32, w.keys)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	var cdf []float64
	if w.zipfS > 0 {
		cdf = make([]float64, w.keys)
		sum := 0.0
		for i := range cdf {
			sum += 1 / math.Pow(float64(i+1), w.zipfS)
			cdf[i] = sum
		}
		for i := range cdf {
			cdf[i] /= sum
		}
	}
	draw := func() uint32 {
		if cdf == nil {
			return perm[r.intn(w.keys)]
		}
		i := sort.SearchFloat64s(cdf, r.float())
		if i >= w.keys {
			i = w.keys - 1
		}
		return perm[i]
	}

	s.ops = make([]uint32, w.streamLen*w.multi)
	for i := 0; i < w.streamLen; i++ {
		req := s.ops[i*w.multi : (i+1)*w.multi]
		for j := range req {
			k := draw()
			for contains(req[:j], k) { // a multiget names distinct keys
				k = draw()
			}
			req[j] = k
		}
		if w.setFrac > 0 && r.float() < w.setFrac {
			req[0] |= setBit
		}
	}

	h := fnv.New64a()
	h.Write(s.pool)
	var b [4]byte
	for _, v := range s.ops {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	s.hash = h.Sum64()
	return s
}
