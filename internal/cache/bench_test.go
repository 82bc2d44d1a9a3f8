package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// benchHits fills a default cache with 5 000 keys of 100 B values — far
// inside the budget, so every read is a hit — and returns the keys in a
// shuffled order, so consecutive reads land on unrelated shards and
// entries the way a server's connections do.
func benchHits(b *testing.B) (*Cache, [][]byte) {
	b.Helper()
	c, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, 5000)
	value := bytes.Repeat([]byte("v"), 100)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key:%08d", i))
		if err := c.SetBytes(keys[i], value, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return c, keys
}

// BenchmarkGetInto is one connection's hit: the per-key server cost the
// model calls 1/µ_S, with nobody else on the cache.
func BenchmarkGetInto(b *testing.B) {
	c, keys := benchHits(b)
	dst := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, _, err := c.GetInto(keys[i%len(keys)], dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		dst = v
	}
}

// BenchmarkGetIntoParallel is the same hit with GOMAXPROCS connections
// reading at once (run it with -cpu 1,2): what it costs over the serial
// number is the cache lines the readers take from each other.
func BenchmarkGetIntoParallel(b *testing.B) {
	c, keys := benchHits(b)
	var starts atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]byte, 0, 128)
		// Readers walk the shuffled keys a seventh of them apart.
		i := int(starts.Add(1)) * len(keys) / 7
		for pb.Next() {
			v, _, _, err := c.GetInto(keys[i%len(keys)], dst[:0])
			if err != nil {
				b.Error(err)
				return
			}
			dst = v
			i++
		}
	})
}
