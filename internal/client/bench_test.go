package client

// Client benchmarks: one caller against real in-process servers on
// loopback, so ns/op is a closed-loop round trip at C = 1 and, with
// -benchmem, allocs/op is the whole process's — the servers' hot path
// allocates nothing, which leaves the client's.

import (
	"fmt"
	"testing"
)

// benchCluster starts n servers holding keys fixed-size values and
// returns a client over them plus the key names.
func benchCluster(b *testing.B, n, keys int) (*Client, []string) {
	b.Helper()
	c, err := New(Options{Servers: startCluster(b, n)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	names := make([]string, keys)
	value := make([]byte, 100)
	for i := range names {
		names[i] = fmt.Sprintf("bench-key-%05d", i)
		if err := c.Set(names[i], value, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	return c, names
}

// BenchmarkClientGet is one single-key hit per op.
func BenchmarkClientGet(b *testing.B) {
	c, keys := benchCluster(b, 1, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientMultiGet is one 32-key fork-join per op, every key a
// hit. Over 2 servers it is the shape of the repository benchmark's
// multiget_fanout workload with one caller instead of two; over 8 it is
// the guard on the legs' requests being written, and their replies read,
// one after another on the caller's goroutine.
func BenchmarkClientMultiGet(b *testing.B) {
	const width = 32
	for _, servers := range []int{2, 8} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			c, keys := benchCluster(b, servers, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := i * width % len(keys)
				items, err := c.MultiGet(keys[at : at+width])
				if err != nil || len(items) != width {
					b.Fatalf("MultiGet = %d items, %v", len(items), err)
				}
			}
		})
	}
}
