package proxy

// BenchmarkProxyQoS measures the tenant admission check on the proxy
// data plane. The contract, gated by TestHotPathAllocs: arming the QoS
// layer adds zero allocations per op to the get passthrough — both
// when the command is admitted (prefix lookup + bucket math + per-
// tenant latency record) and when it is shed (local SERVER_ERROR via
// the recycled pending freelist).

import (
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"testing"

	"memqlat/internal/cache"
	"memqlat/internal/server"
	"memqlat/internal/tenant"
)

func qosBenchKey(i int) string { return fmt.Sprintf("t:%04d", i%benchKeys) }

// startQoSBenchProxy brings up one backend populated with tenant-
// prefixed keys and a QoS-armed proxy in front of it.
func startQoSBenchProxy(tb testing.TB, specs []tenant.Spec) string {
	tb.Helper()
	c, err := cache.New(cache.Options{MaxBytes: 256 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	value := []byte(strings.Repeat("v", benchValueLen))
	for i := 0; i < benchKeys; i++ {
		if err := c.SetBytes([]byte(qosBenchKey(i)), value, 0, 0); err != nil {
			tb.Fatal(err)
		}
	}
	srv, err := server.New(server.Options{Cache: c, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		tb.Fatal(err)
	}
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = srv.Serve(sl) }()
	tb.Cleanup(func() { _ = srv.Close() })
	lim, err := tenant.New(specs)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := New(Options{
		Upstreams: []string{sl.Addr().String()},
		Tenants:   lim,
		Logger:    log.New(io.Discard, "", 0),
	})
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = p.Serve(pl) }()
	tb.Cleanup(func() { _ = p.Close() })
	return pl.Addr().String()
}

// qosCases are the two admission outcomes.
var qosCases = []struct {
	name string
	shed bool
	spec tenant.Spec
}{
	// admitted: the bucket never runs dry — pure admission overhead
	// on top of the get passthrough.
	{"get-admitted", false, tenant.Spec{Name: "t", Rate: 1e12, Burst: 1e9}},
	// shed: the bucket starts empty and refills at a negligible
	// rate — measures the shed-before-queue fast path.
	{"get-shed", true, tenant.Spec{Name: "t", Rate: 1e-9, Burst: 1e-9}},
}

// qosBatch builds a pipeline of tenant-prefixed single-key gets and
// the exact byte count of the reply: VALUE blocks when admitted, one
// shed line per command otherwise.
func qosBatch(shed bool) (batch []byte, ops int, respLen int) {
	ops = 64
	var sb strings.Builder
	for i := 0; i < ops; i++ {
		fmt.Fprintf(&sb, "get %s\r\n", qosBenchKey(i))
	}
	valueBlock := len("VALUE t:0000 0 100\r\n") + benchValueLen + 2
	respLen = ops * (valueBlock + len("END\r\n"))
	if shed {
		respLen = ops * len(tenantShedLine)
	}
	return []byte(sb.String()), ops, respLen
}

func BenchmarkProxyQoS(b *testing.B) {
	for _, bc := range qosCases {
		b.Run(bc.name+"/conns=1", func(b *testing.B) {
			addr := startQoSBenchProxy(b, []tenant.Spec{bc.spec})
			batch, ops, respLen := qosBatch(bc.shed)
			pumpBench(b, []*benchConn{dialBench(b, addr, batch, ops, respLen)})
		})
	}
}
