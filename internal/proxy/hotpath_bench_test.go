package proxy

// Hot-path driver for the proxy data plane: pipelined get/set/multiget
// through a real TCP proxy in front of a real memqlat server. The
// client is allocation-free (prebuilt batches, fixed-size replies read
// with io.ReadFull), so every allocation counted while it runs is the
// combined proxy + server cost; the server's own hot path is already
// zero-alloc (server.TestHotPathAllocs), so any that appears here is
// the proxy's. Two consumers: TestHotPathAllocs gates that count in
// tier 1, BenchmarkProxyHotPath / BenchmarkProxyQoS print ns/op and
// gate nothing (speed is gated by bench/, on paired same-machine runs).

import (
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"memqlat/internal/cache"
	"memqlat/internal/route"
	"memqlat/internal/server"
	"memqlat/internal/tenant"
	"memqlat/internal/testkit"
)

const (
	benchKeys     = 256 // fixed-width names -> fixed-size replies
	benchValueLen = 100
)

func benchKey(i int) string { return fmt.Sprintf("k%04d", i%benchKeys) }

// startBenchProxy brings up nBackends servers pre-populated with
// benchKeys fixed-size values and a proxy in front of them, and returns
// the proxy's address.
func startBenchProxy(tb testing.TB, nBackends int) string {
	tb.Helper()
	addrs := make([]string, nBackends)
	for s := 0; s < nBackends; s++ {
		c, err := cache.New(cache.Options{MaxBytes: 256 << 20})
		if err != nil {
			tb.Fatal(err)
		}
		value := []byte(strings.Repeat("v", benchValueLen))
		for i := 0; i < benchKeys; i++ {
			if err := c.SetBytes([]byte(benchKey(i)), value, 0, 0); err != nil {
				tb.Fatal(err)
			}
		}
		srv, err := server.New(server.Options{Cache: c, Logger: log.New(io.Discard, "", 0)})
		if err != nil {
			tb.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		go func() { _ = srv.Serve(l) }()
		tb.Cleanup(func() { _ = srv.Close() })
		addrs[s] = l.Addr().String()
	}
	p, err := New(Options{
		Upstreams: addrs,
		Logger:    log.New(io.Discard, "", 0),
	})
	if err != nil {
		tb.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = p.Serve(l) }()
	tb.Cleanup(func() { _ = p.Close() })
	return l.Addr().String()
}

// benchBatch builds one pipelined request batch plus the exact byte
// count of the reply, so workers can io.ReadFull without parsing.
//
//	get:      pipeline of single-key gets (op = one get)
//	set:      pipeline of sets            (op = one set)
//	multiget: pipeline of 8-key gets      (op = one 8-key command)
func benchBatch(op string, offset int) (batch []byte, ops int, respLen int) {
	var sb strings.Builder
	value := strings.Repeat("v", benchValueLen)
	valueBlock := len("VALUE k0000 0 100\r\n") + benchValueLen + 2
	switch op {
	case "get":
		ops = 64
		for i := 0; i < ops; i++ {
			fmt.Fprintf(&sb, "get %s\r\n", benchKey(offset+i))
		}
		respLen = ops * (valueBlock + len("END\r\n"))
	case "set":
		ops = 64
		for i := 0; i < ops; i++ {
			fmt.Fprintf(&sb, "set %s 0 0 %d\r\n%s\r\n", benchKey(offset+i), benchValueLen, value)
		}
		respLen = ops * len("STORED\r\n")
	case "multiget":
		ops = 16
		for i := 0; i < ops; i++ {
			sb.WriteString("get")
			for k := 0; k < 8; k++ {
				sb.WriteString(" ")
				sb.WriteString(benchKey(offset + i*8 + k))
			}
			sb.WriteString("\r\n")
		}
		respLen = ops * (8*valueBlock + len("END\r\n"))
	default:
		panic("unknown op " + op)
	}
	return []byte(sb.String()), ops, respLen
}

// benchConn is one pipelined client: a connection, its prebuilt batch
// and a reply buffer of exactly the reply's size.
type benchConn struct {
	nc    net.Conn
	batch []byte
	resp  []byte
	ops   int64
}

// dialBench connects to addr and pumps the batch a few times to warm
// the upstream pool, parser buffers and pending freelists, so what
// follows is steady state.
func dialBench(tb testing.TB, addr string, batch []byte, ops, respLen int) *benchConn {
	tb.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = nc.Close() })
	c := &benchConn{nc: nc, batch: batch, resp: make([]byte, respLen), ops: int64(ops)}
	for i := 0; i < 4; i++ {
		if err := c.roundTrip(); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// roundTrip writes the batch and reads the whole reply.
func (c *benchConn) roundTrip() error {
	if _, err := c.nc.Write(c.batch); err != nil {
		return err
	}
	_, err := io.ReadFull(c.nc, c.resp)
	return err
}

// pumpBench drives every connection from its own goroutine until b.N
// commands are done.
func pumpBench(b *testing.B, conns []*benchConn) {
	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	var wg sync.WaitGroup
	errs := make(chan error, len(conns))
	b.ReportAllocs()
	b.ResetTimer()
	for _, c := range conns {
		wg.Add(1)
		go func(c *benchConn) {
			defer wg.Done()
			for remaining.Add(-c.ops) > -c.ops {
				if err := c.roundTrip(); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
}

// hotPathCases are the proxied data-plane shapes. get and set are
// single-upstream passthroughs; multiget-split forces the fork-join
// path by fronting two backends, whose reply assembly buffers per part.
var hotPathCases = []struct {
	name     string
	op       string
	backends int
}{
	{"get", "get", 1},
	{"set", "set", 1},
	{"multiget", "multiget", 1},
	{"multiget-split", "multiget", 2},
}

// TestHotPathAllocs is the allocation gate of the proxy hop: a
// pipelined batch of gets or multigets through the proxy (passthrough,
// fork-join split, QoS admitted, QoS shed) costs the whole process zero
// heap allocations, a set at most one (the backend's stored value: the
// batch overwrites keys the warm-up stored).
// AllocsPerRun counts every goroutine's mallocs, so proxy and backend
// are both in the count.
func TestHotPathAllocs(t *testing.T) {
	for _, tc := range hotPathCases {
		t.Run(tc.name, func(t *testing.T) {
			batch, ops, respLen := benchBatch(tc.op, 0)
			c := dialBench(t, startBenchProxy(t, tc.backends), batch, ops, respLen)
			limit := 0
			if tc.op == "set" {
				limit = ops
			}
			checkBatchAllocs(t, c, limit)
		})
	}
	for _, tc := range qosCases {
		t.Run(tc.name, func(t *testing.T) {
			batch, ops, respLen := qosBatch(tc.shed)
			c := dialBench(t, startQoSBenchProxy(t, []tenant.Spec{tc.spec}), batch, ops, respLen)
			checkBatchAllocs(t, c, 0)
		})
	}
}

// TestParkedDownstreamFootprint gates what a parked client connection
// costs the proxy: 500 downstream connections add at most 4 KiB of live
// heap apiece (both ends, after a forced GC), idle and again after one
// get each — the get also dials the upstream connections, whose cost
// the 500 share.
func TestParkedDownstreamFootprint(t *testing.T) {
	const parked, budget = 500, 4 << 10
	if limit := testkit.RaiseNoFile(); limit < 2*parked+256 {
		t.Skipf("RLIMIT_NOFILE=%d too low for %d in-process connections", limit, parked)
	}
	addr := startBenchProxy(t, 1)
	base := testkit.ReadFootprint()
	ioBase := testkit.IOWaiting()
	conns := make([]net.Conn, parked)
	for i := range conns {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nc.Close() })
		conns[i] = nc
	}
	check := func(state string) {
		t.Helper()
		testkit.WaitReady(t, "parked downstreams", func() error {
			if n := testkit.IOWaiting() - ioBase; n < parked {
				return fmt.Errorf("%d parked", n)
			}
			return nil
		})
		heap, stack := testkit.ReadFootprint().PerConn(base, parked)
		t.Logf("%s: %.0f B heap, %.0f B stack per connection", state, heap, stack)
		if heap > budget {
			t.Errorf("%s: %.0f B of heap per parked downstream, want <= %d", state, heap, budget)
		}
	}
	check("idle")
	reply := make([]byte, len("VALUE k0000 0 100\r\n")+benchValueLen+len("\r\nEND\r\n"))
	for _, nc := range conns {
		if _, err := nc.Write([]byte("get " + benchKey(0) + "\r\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(nc, reply); err != nil {
			t.Fatal(err)
		}
	}
	check("after one get")
}

// TestParkedUpstreamFootprint gates what an upstream connection costs
// the proxy: after one reply each, 200 upstream connections add at most
// 8 KiB of live heap apiece (both ends, after a forced GC).
func TestParkedUpstreamFootprint(t *testing.T) {
	const conns, budget = 200, 8 << 10
	if limit := testkit.RaiseNoFile(); limit < 2*conns+256 {
		t.Skipf("RLIMIT_NOFILE=%d too low for %d in-process connections", limit, conns)
	}
	p, addr := startProxy(t, Options{Upstreams: []string{startBackend(t)}, UpstreamConns: conns})
	keys := make([]string, conns) // keys[i] sticks to upstream connection i
	for i, left := 0, conns; left > 0; i++ {
		k := "u" + strconv.Itoa(i)
		if c := p.connFor(route.Hash64B([]byte(k))); keys[c] == "" {
			keys[c] = k
			left--
		}
	}
	c := dialConn(t, addr)
	c.send("version\r\n")
	c.expect("VERSION memqlat-proxy")
	base := testkit.ReadFootprint()
	ioBase := testkit.IOWaiting()
	for _, k := range keys {
		c.send("get " + k + "\r\n")
		c.expect("END")
	}
	testkit.WaitReady(t, "parked upstreams", func() error {
		if n := testkit.IOWaiting() - ioBase; n < conns {
			return fmt.Errorf("%d parked", n)
		}
		return nil
	})
	heap, stack := testkit.ReadFootprint().PerConn(base, conns)
	t.Logf("after one reply: %.0f B heap, %.0f B stack per upstream connection", heap, stack)
	if heap > budget {
		t.Errorf("%.0f B of heap per upstream connection, want <= %d", heap, budget)
	}
}

// checkBatchAllocs fails if one steady-state batch on c allocates more
// than limit times.
func checkBatchAllocs(t *testing.T, c *benchConn, limit int) {
	t.Helper()
	var err error
	allocs := testing.AllocsPerRun(500, func() {
		if e := c.roundTrip(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > float64(limit) {
		t.Errorf("batch of %d: %.0f allocs, want <= %d", c.ops, allocs, limit)
	}
}

// BenchmarkProxyHotPath prints the per-command cost of the proxied data
// plane (make microbench); nothing compares it against a recorded
// number.
func BenchmarkProxyHotPath(b *testing.B) {
	run := func(name, op string, backends, conns int) {
		b.Run(fmt.Sprintf("%s/conns=%d", name, conns), func(b *testing.B) {
			addr := startBenchProxy(b, backends)
			workers := make([]*benchConn, conns)
			for i := range workers {
				batch, ops, respLen := benchBatch(op, i*16)
				workers[i] = dialBench(b, addr, batch, ops, respLen)
			}
			pumpBench(b, workers)
		})
	}
	for _, bc := range hotPathCases {
		run(bc.name, bc.op, bc.backends, 1)
	}
	run("get", "get", 1, 4)
}
